//! The measurement harness every report bin shares: warm-up plus timed
//! repetitions summarized as a median with its spread, the self-spawning
//! probe child and its one-line `key=value` summary, one JSON writer, and
//! the common command line.

use std::ffi::OsStr;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A sample summarized: median, 10th and 90th percentiles (nearest rank),
/// minimum, and the sample count. Timing samples are nanoseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub p10: f64,
    pub p90: f64,
    pub min: f64,
    pub n: usize,
}

impl Summary {
    /// Summarizes `samples`, in any order. The median of an even count is
    /// the mean of the middle pair.
    ///
    /// # Panics
    ///
    /// On an empty sample.
    pub fn of(samples: impl IntoIterator<Item = f64>) -> Summary {
        let sorted = sorted(samples);
        let n = sorted.len();
        assert!(n > 0, "a summary needs at least one sample");
        let median =
            if n % 2 == 1 { sorted[n / 2] } else { (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0 };
        Summary {
            median,
            p10: nearest_rank(&sorted, 10),
            p90: nearest_rank(&sorted, 90),
            min: sorted[0],
            n,
        }
    }
}

fn sorted(samples: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut sorted: Vec<f64> = samples.into_iter().collect();
    sorted.sort_by(f64::total_cmp);
    sorted
}

fn nearest_rank(sorted: &[f64], p: usize) -> f64 {
    sorted[(p * sorted.len()).div_ceil(100).clamp(1, sorted.len()) - 1]
}

/// The `p`-th percentile of `samples` by nearest rank; `p = 100` is the
/// maximum.
///
/// # Panics
///
/// On an empty sample.
pub fn percentile(samples: &[f64], p: usize) -> f64 {
    assert!(!samples.is_empty(), "a percentile needs at least one sample");
    nearest_rank(&sorted(samples.iter().copied()), p)
}

/// Runs `body` once and returns its wall time in nanoseconds with its
/// result.
pub fn timed<T>(body: impl FnOnce() -> T) -> (f64, T) {
    let started = Instant::now();
    let out = body();
    (started.elapsed().as_nanos() as f64, out)
}

/// Runs `setup` then `body` `warmup` times untimed, then `reps` times with
/// only `body` timed; returns each timed run's nanoseconds and result.
pub fn runs<S, T>(
    warmup: usize,
    reps: usize,
    mut setup: impl FnMut() -> S,
    mut body: impl FnMut(S) -> T,
) -> Vec<(f64, T)> {
    for _ in 0..warmup {
        std::hint::black_box(body(setup()));
    }
    (0..reps)
        .map(|_| {
            let input = setup();
            timed(|| body(input))
        })
        .collect()
}

/// [`runs`] without set-up, summarized.
pub fn time<T>(warmup: usize, reps: usize, mut body: impl FnMut() -> T) -> Summary {
    let runs = runs(warmup, reps, || (), |()| drop(std::hint::black_box(body())));
    Summary::of(runs.into_iter().map(|(ns, ())| ns))
}

// ---------------------------------------------------------------------
// Probe children: this binary re-run in a fresh process.
// ---------------------------------------------------------------------

const PROBE_PREFIX: &str = "probe ";

/// The arguments after `flag` when this process was started as a probe
/// child, that is, with `flag` first on its command line.
pub fn probe_args(flag: &str) -> Option<Vec<String>> {
    let mut args = std::env::args().skip(1);
    (args.next().as_deref() == Some(flag)).then(|| args.collect())
}

/// The one summary line a probe child prints: `probe key=value …`.
pub fn probe_line(fields: &[(&str, String)]) -> String {
    let pairs: Vec<String> = fields.iter().map(|(key, value)| format!("{key}={value}")).collect();
    format!("{PROBE_PREFIX}{}", pairs.join(" "))
}

/// A probe field holding a sample: its values joined by commas.
pub fn sample_field(samples: impl IntoIterator<Item = f64>) -> String {
    samples.into_iter().map(|x| x.to_string()).collect::<Vec<_>>().join(",")
}

/// Runs this executable again as `exe flag args…`, asserts that it exits
/// successfully, and parses its summary line.
pub fn spawn_probe(flag: &str, args: &[&OsStr]) -> Probe {
    let exe = std::env::current_exe().expect("own executable path");
    let output =
        std::process::Command::new(exe).arg(flag).args(args).output().expect("probe child spawns");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "probe child {args:?} failed:\n{stdout}{}",
        String::from_utf8_lossy(&output.stderr)
    );
    Probe::parse(&stdout).unwrap_or_else(|e| panic!("probe child {args:?}: {e}"))
}

/// A probe child's parsed summary line.
#[derive(Debug)]
pub struct Probe {
    line: String,
}

impl Probe {
    /// Finds the summary line in a probe child's stdout.
    fn parse(stdout: &str) -> Result<Probe, String> {
        let line = stdout.lines().find(|l| l.starts_with(PROBE_PREFIX));
        let line = line.ok_or_else(|| format!("no summary line in:\n{stdout}"))?;
        Ok(Probe { line: line.to_owned() })
    }

    /// The raw value of `key`.
    fn field(&self, key: &str) -> Result<&str, String> {
        self.line
            .split_whitespace()
            .find_map(|part| part.strip_prefix(key)?.strip_prefix('='))
            .ok_or_else(|| format!("probe line lacks `{key}`: {}", self.line))
    }

    /// The value of `key`, parsed.
    ///
    /// # Panics
    ///
    /// When `key` is missing or does not parse; the message names it.
    pub fn get<T: std::str::FromStr>(&self, key: &str) -> T {
        let raw = self.field(key).unwrap_or_else(|e| panic!("{e}"));
        raw.parse().unwrap_or_else(|_| panic!("probe field `{key}` does not parse: {raw}"))
    }

    /// The sample [`sample_field`] wrote under `key`, summarized.
    pub fn summary(&self, key: &str) -> Summary {
        Summary::of(self.field(key).unwrap_or_else(|e| panic!("{e}")).split(',').map(|x| {
            x.parse().unwrap_or_else(|_| panic!("probe field `{key}` holds a non-number: {x}"))
        }))
    }
}

// ---------------------------------------------------------------------
// JSON.
// ---------------------------------------------------------------------

/// A JSON value. The workspace is offline and carries no serialization
/// dependency, so the report bins build their documents from this.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// A JSON object with `fields` in order.
pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(key, value)| (key.to_owned(), value)).collect())
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

macro_rules! json_number {
    ($($t:ty),*) => {
        $(impl From<$t> for Json {
            fn from(x: $t) -> Json {
                Json::Num(x as f64)
            }
        })*
    };
}
json_number!(f64, u64, usize);

impl From<Summary> for Json {
    fn from(s: Summary) -> Json {
        obj([
            ("median", s.median.into()),
            ("p10", s.p10.into()),
            ("p90", s.p90.into()),
            ("min", s.min.into()),
            ("n", s.n.into()),
        ])
    }
}

impl Json {
    /// Renders the document. The root, and any container holding a
    /// container that itself holds one, put each entry on a line of its
    /// own; every other container stays on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// How deeply containers nest in this value: 0 for a scalar.
    fn nesting(&self) -> usize {
        let deepest = |values: &mut dyn Iterator<Item = &Json>| values.map(Json::nesting).max();
        match self {
            Json::Arr(items) => 1 + deepest(&mut items.iter()).unwrap_or(0),
            Json::Obj(fields) => 1 + deepest(&mut fields.iter().map(|(_, v)| v)).unwrap_or(0),
            _ => 0,
        }
    }

    fn write(&self, out: &mut String, depth: usize) {
        let (open, close, entries): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Null => return out.push_str("null"),
            Json::Bool(b) => return out.push_str(&b.to_string()),
            Json::Num(x) => return out.push_str(&render_number(*x)),
            Json::Str(s) => return out.push_str(&quote(s)),
            Json::Arr(items) => ('[', ']', items.iter().map(|item| (None, item)).collect()),
            Json::Obj(fields) => {
                ('{', '}', fields.iter().map(|(key, value)| (Some(key.as_str()), value)).collect())
            }
        };
        let tall = depth == 0 || self.nesting() > 2;
        let (gap, indent) = if tall {
            ("\n".to_owned() + &"  ".repeat(depth + 1), "\n".to_owned() + &"  ".repeat(depth))
        } else {
            (" ".to_owned(), " ".to_owned())
        };
        out.push(open);
        for (index, (key, value)) in entries.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            out.push_str(&gap);
            if let Some(key) = key {
                out.push_str(&quote(key));
                out.push_str(": ");
            }
            value.write(out, depth + 1);
        }
        if !entries.is_empty() {
            out.push_str(&indent);
        }
        out.push(close);
    }
}

/// A JSON number with at least four significant digits and no trailing
/// zeros; integers print without a fraction, and non-finite values as
/// `null`.
fn render_number(x: f64) -> String {
    if !x.is_finite() {
        return "null".to_owned();
    }
    let magnitude = if x == 0.0 { 0 } else { x.abs().log10().floor() as i32 };
    let decimals = (3 - magnitude).max(0) as usize;
    let text = format!("{x:.decimals$}");
    let text =
        if text.contains('.') { text.trim_end_matches('0').trim_end_matches('.') } else { &text };
    if text == "-0" {
        "0".to_owned()
    } else {
        text.to_owned()
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---------------------------------------------------------------------
// The command line and the report file.
// ---------------------------------------------------------------------

/// A report bin's command line: `--quick`, the bin's own switches and
/// path-valued options, and at most one positional output path.
#[derive(Debug)]
pub struct Args {
    /// Fewer repetitions, for smoke runs.
    pub quick: bool,
    /// Where the report goes: the positional path, or the bin's BENCH file
    /// at the repository root.
    pub output: PathBuf,
    switches: Vec<String>,
    options: Vec<(String, PathBuf)>,
}

impl Args {
    /// Parses this process's arguments. `default_output` names the BENCH
    /// file at the repository root written when no path is given.
    ///
    /// # Panics
    ///
    /// On an unknown flag, or an option without its path.
    pub fn parse(default_output: &str, switches: &[&str], options: &[&str]) -> Args {
        Args::from_args(std::env::args().skip(1), default_output, switches, options)
    }

    fn from_args(
        args: impl IntoIterator<Item = String>,
        default_output: &str,
        switches: &[&str],
        options: &[&str],
    ) -> Args {
        let mut parsed = Args {
            quick: false,
            output: repo_root().join(default_output),
            switches: Vec::new(),
            options: Vec::new(),
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => parsed.quick = true,
                flag if switches.contains(&flag) => parsed.switches.push(arg),
                flag if options.contains(&flag) => {
                    let path = args.next().unwrap_or_else(|| panic!("{flag} needs a file path"));
                    parsed.options.push((arg, PathBuf::from(path)));
                }
                flag if flag.starts_with("--") => panic!("unknown flag `{flag}`"),
                _ => parsed.output = PathBuf::from(arg),
            }
        }
        parsed
    }

    /// Whether `switch` was given.
    pub fn switch(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    /// The path given to `option`, if any.
    pub fn option(&self, option: &str) -> Option<&Path> {
        self.options.iter().find(|(o, _)| o == option).map(|(_, path)| path.as_path())
    }
}

/// The workspace root, where the BENCH files live.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// CPUs this process may run on.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Writes a report to `path` and prints it: the command that regenerates
/// it, the host's CPU count, then `fields`.
pub fn write_report<'a>(path: &Path, bin: &str, fields: impl IntoIterator<Item = (&'a str, Json)>) {
    let command = format!("cargo run --release -p cccc-bench --bin {bin}");
    let header = [("generated_by", command.as_str().into()), ("host_cpus", host_cpus().into())];
    let document = obj(header.into_iter().chain(fields)).render();
    std::fs::write(path, &document).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    print!("{document}");
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summaries_of_known_samples() {
        let one = Summary::of([7.0]);
        assert_eq!(one, Summary { median: 7.0, p10: 7.0, p90: 7.0, min: 7.0, n: 1 });
        let even = Summary::of([1.0, 2.0, 3.0, 10.0]);
        assert_eq!((even.median, even.p10, even.p90, even.min), (2.5, 1.0, 10.0, 1.0));
        let unsorted = Summary::of((1..=20).rev().map(f64::from));
        assert_eq!((unsorted.median, unsorted.p10, unsorted.p90), (10.5, 2.0, 18.0));
        let ties = Summary::of([5.0, 1.0, 5.0, 5.0, 9.0]);
        assert_eq!((ties.median, ties.p10, ties.p90, ties.min, ties.n), (5.0, 1.0, 9.0, 1.0, 5));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!((percentile(&hundred, 99), percentile(&hundred, 100)), (99.0, 100.0));
    }

    #[test]
    fn json_escapes_strings_and_trims_numbers() {
        let doc = obj([
            ("a \"quoted\" \\ name", "tab\there".into()),
            (
                "floats",
                Json::Arr(
                    [2.5, 1.0 / 3.0, 0.00015, 1234567.0, 2.0, f64::NAN].map(Json::Num).into(),
                ),
            ),
            (
                "nested",
                Json::Arr(vec![
                    Json::Arr(vec![1u64.into(), 2u64.into()]),
                    Json::Arr(vec![]),
                    obj([]),
                ]),
            ),
            ("deep", Json::Arr(vec![obj([("s", Summary::of([1.0]).into())])])),
        ]);
        let expected = r#"{
  "a \"quoted\" \\ name": "tab\u0009here",
  "floats": [ 2.5, 0.3333, 0.00015, 1234567, 2, null ],
  "nested": [ [ 1, 2 ], [], {} ],
  "deep": [
    { "s": { "median": 1, "p10": 1, "p90": 1, "min": 1, "n": 1 } }
  ]
}
"#;
        assert_eq!(doc.render(), expected);
    }

    #[test]
    fn probe_lines_round_trip_and_name_missing_keys() {
        let line = probe_line(&[
            ("wall_ns", sample_field([30.0, 10.0, 20.0])),
            ("compiled", 3.to_string()),
            ("observed", "true".to_owned()),
        ]);
        let probe = Probe::parse(&format!("noise\n{line}\n")).expect("summary line found");
        assert_eq!(probe.summary("wall_ns"), Summary::of([10.0, 20.0, 30.0]));
        assert_eq!(probe.get::<usize>("compiled"), 3);
        assert!(probe.get::<bool>("observed"));
        let missing = probe.field("disk_cached").expect_err("no such key");
        assert!(missing.contains("`disk_cached`"), "{missing}");
        assert!(Probe::parse("no summary here").is_err());
    }

    #[test]
    fn args_take_quick_switches_options_and_one_output() {
        let args = |list: &[&str]| {
            let list = list.iter().map(|s| (*s).to_owned());
            Args::from_args(list, "BENCH_x.json", &["--timings"], &["--query-out"])
        };
        let default = args(&[]);
        assert!(!default.quick && !default.switch("--timings"));
        assert_eq!(default.output, repo_root().join("BENCH_x.json"));
        let given = args(&["--quick", "out.json", "--query-out", "q.json", "--timings"]);
        assert!(given.quick && given.switch("--timings"));
        assert_eq!(given.output, PathBuf::from("out.json"));
        assert_eq!(given.option("--query-out"), Some(Path::new("q.json")));
    }

    #[test]
    #[should_panic(expected = "unknown flag `--bogus`")]
    fn args_reject_unknown_flags() {
        Args::from_args(["--bogus".to_owned()], "BENCH_x.json", &[], &[]);
    }
}
