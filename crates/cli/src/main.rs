//! `pr` — command-line interface to the Packet Re-cycling
//! reproduction. `pr help` prints the subcommands, which are the rows
//! of [`commands::COMMANDS`].

mod args;
mod commands;

fn main() {
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
