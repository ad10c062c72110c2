//! `pr` — command-line interface to the Packet Re-cycling
//! reproduction. `pr help` prints the subcommands, which are the rows
//! of [`commands::COMMANDS`].

mod args;
mod commands;

fn main() {
    end_quietly_on_a_closed_pipe();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match raw.first().map(String::as_str) {
        None => {
            eprintln!("{}", commands::usage());
            std::process::exit(2);
        }
        Some("help" | "--help" | "-h") => println!("{}", commands::usage()),
        Some(_) => {
            if let Err(e) = commands::invoke(raw) {
                eprintln!("error: {e}\n\n{}", commands::usage());
                std::process::exit(if e.is::<commands::Usage>() { 2 } else { 1 });
            }
        }
    }
}

/// A reader that closes its end early (`pr help | head -1`, or
/// `pr 2>&1 | head -1` for the usage on stderr) is no error of ours,
/// but `println!` and `eprintln!` panic on the broken pipe. This hook
/// ends the process there instead — with status 141, what a shell
/// reports for a process that SIGPIPE ended — and prints nothing.
/// Every other panic keeps the default report.
fn end_quietly_on_a_closed_pipe() {
    let report = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let message = info.payload_as_str().unwrap_or_default();
        let printing = ["failed printing to stdout", "failed printing to stderr"];
        if printing.iter().any(|p| message.starts_with(p)) && message.contains("Broken pipe") {
            std::process::exit(141);
        }
        report(info);
    }));
}
