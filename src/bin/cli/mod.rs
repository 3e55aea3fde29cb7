//! What `sqp` and `sqp-shard` share: strict `--flag value` parsing against
//! the names a (sub)command declares, and database loading.

use std::fs::File;
use std::io::BufReader;

use subgraph_query::graph::{binio, io, GraphDb};

/// Parsed command-line options of one (sub)command.
pub struct Opts {
    flags: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Opts {
    /// Parses `args` against the value-taking `flags` and the bare
    /// `switches` the command accepts (space-separated names); any other
    /// name is an error, so a misspelt flag fails instead of silently
    /// running with a default.
    pub fn parse(args: &[String], flags: &str, switches: &str) -> Result<Self, String> {
        let mut opts = Self { flags: Vec::new(), switches: Vec::new() };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument '{a}'"));
            };
            if switches.split_whitespace().any(|s| s == name) {
                opts.switches.push(name.to_string());
            } else if flags.split_whitespace().any(|f| f == name) {
                let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                opts.flags.push((name.to_string(), v.clone()));
            } else {
                return Err(format!("unknown option '--{name}'"));
            }
        }
        Ok(opts)
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    pub fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name).ok_or_else(|| format!("missing required --{name}"))
    }

    pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("invalid --{name} value '{v}'")),
        }
    }

    #[allow(dead_code)] // `sqp-shard` declares no switches
    pub fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

/// Loads a database: the binary format for `.bin` paths, `t # / v / e` text
/// otherwise.
pub fn load_db(path: &str) -> Result<GraphDb, String> {
    if path.ends_with(".bin") {
        let bytes = std::fs::read(path).map_err(|e| format!("cannot open {path}: {e}"))?;
        return binio::from_bytes(bytes.as_slice())
            .map_err(|e| format!("cannot parse {path}: {e}"));
    }
    let f = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    io::read_database(BufReader::new(f)).map_err(|e| format!("cannot parse {path}: {e}"))
}
