//! Result artefacts: the `--format csv|json` files under `results/`,
//! written while the sweep that fills them is still running.
//!
//! A row sweep (`pr traffic`, `pr impair`, `pr experiment impair-loss`)
//! hands each scenario's row to the engine's ordered sink
//! ([`crate::engine::run_ordered`]) in scenario order. A [`RowWriter`]
//! renders the row there and the sweep lets it go, so nothing of size
//! O(scenarios × intervals) is held. A whole artefact in memory is the
//! same writer fed every row ([`render`]), so the two cannot disagree.
//! The file itself is an [`Artefact`]: `<name>.partial` until it is
//! finished, then renamed to `<name>`.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::marker::PhantomData;
use std::path::PathBuf;

use serde::Serialize;

/// The machine-readable form of a sweep's rows (`--format csv|json`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// A header line, then each row's line(s).
    Csv,
    /// One pretty-printed JSON array of the rows.
    Json,
}

impl Format {
    /// The file extension, which is also the `--format` value.
    pub fn ext(self) -> &'static str {
        match self {
            Format::Csv => "csv",
            Format::Json => "json",
        }
    }
}

/// A row with a CSV rendering.
pub trait CsvRow: Serialize {
    /// The artefact's header line, newline included.
    const CSV_HEADER: &'static str;

    /// Writes the row's line(s): one per scenario for `pr traffic`,
    /// one per sampled interval for `pr impair`.
    fn write_csv(&self, out: &mut dyn Write) -> io::Result<()>;
}

/// Renders rows into `out` as they come. CSV is the header, then each
/// row's lines. JSON is an array whose elements are
/// `serde_json::to_string_pretty(&row)` indented one level: the bytes
/// `to_string_pretty(&rows)` gives, without the list of rows.
///
/// The first write error is kept: later rows are dropped, and
/// [`RowWriter::finish`] returns it.
pub struct RowWriter<W: Write, R> {
    out: W,
    format: Format,
    rows: usize,
    error: Option<io::Error>,
    row_type: PhantomData<fn(&R)>,
}

impl<W: Write, R: CsvRow> RowWriter<W, R> {
    /// A writer of `format` into `out` (the CSV header goes first).
    pub fn new(out: W, format: Format) -> RowWriter<W, R> {
        let mut writer = RowWriter { out, format, rows: 0, error: None, row_type: PhantomData };
        if format == Format::Csv {
            writer.attempt(|out| out.write_all(R::CSV_HEADER.as_bytes()));
        }
        writer
    }

    /// Renders the next row.
    pub fn row(&mut self, row: &R) {
        let (format, first) = (self.format, self.rows == 0);
        self.rows += 1;
        self.attempt(|out| match format {
            Format::Csv => row.write_csv(out),
            Format::Json => {
                out.write_all(if first { b"[" } else { b"," })?;
                let json = serde_json::to_string_pretty(row).expect("serializable row");
                for line in json.split('\n') {
                    out.write_all(b"\n  ")?;
                    out.write_all(line.as_bytes())?;
                }
                Ok(())
            }
        });
    }

    /// Closes the JSON array, flushes, and hands `out` back, or returns
    /// the first write error.
    pub fn finish(mut self) -> io::Result<W> {
        let tail: &[u8] = match (self.format, self.rows) {
            (Format::Csv, _) => b"",
            (Format::Json, 0) => b"[]",
            (Format::Json, _) => b"\n]",
        };
        self.attempt(|out| {
            out.write_all(tail)?;
            out.flush()
        });
        match self.error {
            Some(error) => Err(error),
            None => Ok(self.out),
        }
    }

    fn attempt(&mut self, write: impl FnOnce(&mut W) -> io::Result<()>) {
        if self.error.is_none() {
            self.error = write(&mut self.out).err();
        }
    }
}

/// The whole artefact of `rows` in memory: [`RowWriter`] fed every row.
pub fn render<R: CsvRow>(rows: &[R], format: Format) -> String {
    let mut writer = RowWriter::new(Vec::new(), format);
    rows.iter().for_each(|row| writer.row(row));
    let bytes = writer.finish().expect("writing to a Vec cannot fail");
    String::from_utf8(bytes).expect("rows render as UTF-8")
}

/// A file under `results/`, written as `<name>.partial` and renamed to
/// `<name>` by [`Artefact::finish`]. A run that fails or panics part-way
/// leaves no truncated file under the final name: dropping an unfinished
/// artefact removes its partial file. (A killed process runs no drop, so
/// its `.partial` stays behind.)
pub struct Artefact {
    path: PathBuf,
    partial: PathBuf,
    out: BufWriter<File>,
    finished: bool,
}

impl Artefact {
    /// Starts `results/<name>`, creating `results/` on demand.
    pub fn create(name: &str) -> io::Result<Artefact> {
        let path = crate::results_dir().join(name);
        let partial = path.with_file_name(format!("{name}.partial"));
        let file = File::create(&partial).map_err(|e| context(&path, e))?;
        Ok(Artefact { path, partial, out: BufWriter::new(file), finished: false })
    }

    /// Flushes, renames the file to its final name, and echoes the path.
    pub fn finish(mut self) -> io::Result<PathBuf> {
        self.out.flush().map_err(|e| context(&self.path, e))?;
        std::fs::rename(&self.partial, &self.path).map_err(|e| context(&self.path, e))?;
        self.finished = true;
        println!("  wrote {}", self.path.display());
        Ok(self.path.clone())
    }
}

impl Write for Artefact {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.out.write(buf).map_err(|e| context(&self.path, e))
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush().map_err(|e| context(&self.path, e))
    }
}

impl Drop for Artefact {
    fn drop(&mut self) {
        if !self.finished {
            // Nothing is left to tell of a failed removal.
            let _ = std::fs::remove_file(&self.partial);
        }
    }
}

/// `error`, naming the artefact it happened to.
fn context(path: &std::path::Path, error: io::Error) -> io::Error {
    io::Error::new(error.kind(), format!("write {}: {error}", path.display()))
}
