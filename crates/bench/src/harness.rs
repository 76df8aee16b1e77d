//! The machinery the throughput bins share: the `--threads-list` parser,
//! the driver that re-runs a bin once per thread count and parses the
//! `<bin>-result key=value ...` lines it prints, the cross-thread-count
//! digest gate, and the `BENCH_*.json` writer.
//!
//! The vendored rayon shim sizes its pool once per process from
//! `RAYON_NUM_THREADS`, so the only faithful way to vary the thread count
//! is to vary it across processes: [`run_per_thread`] spawns the running
//! binary once per count with the same arguments. The workload is the
//! same in every child, so the sweep doubles as a determinism gate
//! ([`check_digests`]).

use autocat_scenario::value::{self, Value};
use std::collections::BTreeMap;
use std::fmt::Display;
use std::process::Command;
use std::str::FromStr;

/// Parses a `--threads-list` value such as `1,2,4,8`, or returns an error
/// naming the first entry that is not a positive integer (an empty list
/// has one empty entry). The rayon shim reads 0 as "unset" and falls back
/// to all cores, so a row labelled 0 would be a lie.
pub fn parse_threads_list(list: &str) -> Result<Vec<usize>, String> {
    list.split(',')
        .map(|t| match t.trim().parse::<usize>() {
            Ok(0) | Err(_) => Err(format!("bad thread count `{t}` in --threads-list `{list}`")),
            Ok(n) => Ok(n),
        })
        .collect()
}

/// One `<tag> key=value ...` line printed by a bench child. Every error
/// its methods return names the key and the line.
#[derive(Debug)]
pub struct ResultLine(String);

impl ResultLine {
    /// Parses `line`, whose first word is the tag; every other word must be
    /// a `key=value` field.
    pub fn parse(line: &str) -> Result<Self, String> {
        match line.split_whitespace().skip(1).find(|f| !f.contains('=')) {
            Some(field) => Err(format!("field `{field}` has no `=` in `{line}`")),
            None => Ok(Self(line.to_string())),
        }
    }

    /// The raw value of `key`, or an error if the line has no such field.
    pub fn get(&self, key: &str) -> Result<&str, String> {
        self.0
            .split_whitespace()
            .skip(1)
            .find_map(|f| f.strip_prefix(key)?.strip_prefix('='))
            .ok_or_else(|| format!("missing `{key}` in `{}`", self.0))
    }

    /// The value of `key` parsed as a `T`.
    pub fn num<T: FromStr>(&self, key: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        let v = self.get(key)?;
        v.parse()
            .map_err(|e| format!("bad `{key}` in `{}`: {e}", self.0))
    }

    /// The value of `key` read as a hexadecimal digest.
    pub fn hex(&self, key: &str) -> Result<u64, String> {
        let v = self.get(key)?;
        u64::from_str_radix(v, 16).map_err(|e| format!("bad `{key}` in `{}`: {e}", self.0))
    }
}

/// Parses every line of `stdout` whose first word is `tag` (see
/// [`ResultLine::parse`]); no such line at all is an error too.
pub fn parse_result_lines(stdout: &str, tag: &str) -> Result<Vec<ResultLine>, String> {
    let lines = stdout
        .lines()
        .filter(|l| l.split_whitespace().next() == Some(tag))
        .map(ResultLine::parse)
        .collect::<Result<Vec<_>, _>>()?;
    if lines.is_empty() {
        return Err(format!("no `{tag}` line in:\n{stdout}"));
    }
    Ok(lines)
}

/// Re-runs the current binary once per entry of `threads_list`, with
/// `args` and `RAYON_NUM_THREADS` set to that count, and returns each
/// child's `tag` lines in `threads_list` order. A child that cannot be
/// spawned, fails (its stderr is in the error) or prints no well-formed
/// result line is an error.
pub fn run_per_thread(
    threads_list: &[usize],
    args: &[String],
    tag: &str,
) -> Result<Vec<(usize, Vec<ResultLine>)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    threads_list
        .iter()
        .map(|&threads| {
            let out = Command::new(&exe)
                .args(args)
                .env("RAYON_NUM_THREADS", threads.to_string())
                .output()
                .map_err(|e| format!("spawning child for {threads} thread(s): {e}"))?;
            if !out.status.success() {
                return Err(format!(
                    "child for {threads} thread(s) failed:\n{}",
                    String::from_utf8_lossy(&out.stderr)
                ));
            }
            let lines = parse_result_lines(&String::from_utf8_lossy(&out.stdout), tag)
                .map_err(|e| format!("child for {threads} thread(s): {e}"))?;
            Ok((threads, lines))
        })
        .collect()
}

/// The determinism gate over `(threads, key, digest)` triples, the key
/// naming one workload (`what`: a lane count, a scenario): every workload
/// must be reported at every thread count, with one digest. The error
/// names the key and the thread counts that diverged, or the thread count
/// that did not report the key.
pub fn check_digests<K: Ord + Display>(
    what: &str,
    rows: impl IntoIterator<Item = (usize, K, u64)>,
) -> Result<(), String> {
    let mut by_key: BTreeMap<K, Vec<(usize, u64)>> = BTreeMap::new();
    let mut all_threads = Vec::new();
    for (threads, key, digest) in rows {
        by_key.entry(key).or_default().push((threads, digest));
        if !all_threads.contains(&threads) {
            all_threads.push(threads);
        }
    }
    for (key, runs) in &by_key {
        let (threads0, digest0) = runs[0];
        if let Some(&(threads, digest)) = runs.iter().find(|&&(_, d)| d != digest0) {
            return Err(format!(
                "{what} `{key}` diverged across thread counts: {threads0} thread(s) -> \
                 {digest0:016x}, {threads} thread(s) -> {digest:016x}"
            ));
        }
        if let Some(t) = all_threads.iter().find(|&&t| runs.iter().all(|r| r.0 != t)) {
            return Err(format!("{what} `{key}` was not reported at {t} thread(s)"));
        }
    }
    Ok(())
}

/// One JSON object of a `BENCH_*.json` array, its keys in the order given.
pub type JsonRow = Vec<(&'static str, Value)>;

/// `x` rounded to `places` decimals, for the timings and rates a
/// `BENCH_*.json` records.
pub fn fixed(x: f64, places: i32) -> Value {
    let scale = 10f64.powi(places);
    Value::Float((x * scale).round() / scale)
}

/// Writes a `BENCH_*.json` baseline to `path` and says so: one `header`
/// field per line, then `available_cpus` and the dispatch `simd_tier` of
/// the host that measured it, then each section as an array with one
/// object per line. Every value is emitted through [`value::to_json`].
pub fn write_bench_json(
    path: &str,
    header: &[(&str, Value)],
    sections: &[(&str, &[JsonRow])],
) -> Result<(), String> {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let stamp = [
        ("available_cpus", Value::Int(cpus as i64)),
        ("simd_tier", Value::Str(simd::tier().name().to_string())),
    ];
    let field = |(k, v): &(&str, Value)| format!("\"{k}\": {}", value::to_json(v));
    let mut lines: Vec<String> = header
        .iter()
        .chain(&stamp)
        .map(|f| format!("  {}", field(f)))
        .collect();
    for (name, rows) in sections {
        let objects: Vec<String> = rows
            .iter()
            .map(|row| {
                let fields: Vec<String> = row.iter().map(field).collect();
                format!("    {{{}}}", fields.join(", "))
            })
            .collect();
        lines.push(format!("  \"{name}\": [\n{}\n  ]", objects.join(",\n")));
    }
    std::fs::write(path, format!("{{\n{}\n}}\n", lines.join(",\n")))
        .map_err(|e| format!("writing {path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_list_takes_positive_counts_in_order() {
        assert_eq!(parse_threads_list("1,2,4,8"), Ok(vec![1, 2, 4, 8]));
        assert_eq!(parse_threads_list(" 3 , 1"), Ok(vec![3, 1]));
    }

    #[test]
    fn threads_list_rejects_zero_empty_entries_and_non_numbers() {
        for bad in ["0", "1,0", "", "1,,2", "two", "1,2x", "-1"] {
            let err = parse_threads_list(bad).unwrap_err();
            assert!(err.contains("bad thread count"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn result_lines_parse_typed_fields() {
        let stdout = "header\nbench-result lanes=4 secs=0.5 digest=00ff\nnoise\n\
                      bench-result lanes=8 secs=1.25 digest=0a\n";
        let lines = parse_result_lines(stdout, "bench-result").unwrap();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].num::<usize>("lanes"), Ok(4));
        assert_eq!(lines[1].num::<f64>("secs"), Ok(1.25));
        assert_eq!(lines[0].hex("digest"), Ok(0xff));
        assert_eq!(lines[1].get("lanes"), Ok("8"));
    }

    #[test]
    fn result_line_errors_name_the_key_and_the_line() {
        let line = "bench-result lanes=four secs=0.5";
        let parsed = ResultLine::parse(line).unwrap();
        for (err, key) in [
            (parsed.get("digest").unwrap_err(), "`digest`"),
            (parsed.num::<usize>("lanes").unwrap_err(), "`lanes`"),
            (parsed.hex("secs").unwrap_err(), "`secs`"),
        ] {
            assert!(err.contains(key) && err.contains(line), "{err}");
        }
        let no_eq = "bench-result lanes=4 secs";
        let err = ResultLine::parse(no_eq).unwrap_err();
        assert!(err.contains("`secs`") && err.contains(no_eq), "{err}");
    }

    #[test]
    fn a_child_without_a_result_line_is_an_error() {
        let err = parse_result_lines("bench-results x=1\nother\n", "bench-result");
        assert!(err.unwrap_err().contains("no `bench-result` line"));
    }

    #[test]
    fn digest_gate_names_the_key_and_the_diverging_thread_counts() {
        let same = [(1, 4, 7), (1, 8, 9), (2, 4, 7), (2, 8, 9)];
        assert_eq!(check_digests("lane count", same), Ok(()));
        let rows = [(1, 4, 7), (1, 8, 9), (2, 4, 7), (2, 8, 10)];
        let err = check_digests("lane count", rows).unwrap_err();
        assert!(err.contains("lane count `8`"), "{err}");
        assert!(err.contains("1 thread(s) -> 0000000000000009"), "{err}");
        assert!(err.contains("2 thread(s) -> 000000000000000a"), "{err}");
    }

    #[test]
    fn digest_gate_names_a_key_missing_at_one_thread_count() {
        let rows = [(1, "a", 7), (1, "b", 9), (4, "a", 7)];
        let err = check_digests("scenario", rows).unwrap_err();
        assert!(
            err.contains("scenario `b`") && err.contains("4 thread(s)"),
            "{err}"
        );
    }

    #[test]
    fn bench_json_has_one_header_field_and_one_result_per_line() {
        let path = std::env::temp_dir().join(format!("bench-json-{}.json", std::process::id()));
        let rows: Vec<JsonRow> = vec![
            vec![("threads", Value::Int(1)), ("secs", fixed(0.123_456, 4))],
            vec![("digest", Value::Str("00ab".into()))],
        ];
        let header = [("benchmark", Value::Str("t".into()))];
        write_bench_json(path.to_str().unwrap(), &header, &[("results", &rows)]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[1], "  \"benchmark\": \"t\",");
        assert!(lines[2].starts_with("  \"available_cpus\": "));
        let tier = format!("  \"simd_tier\": \"{}\",", simd::tier().name());
        assert_eq!(lines[3], tier);
        assert_eq!(lines[5], "    {\"threads\": 1, \"secs\": 0.1235},");
        assert_eq!(lines[6], "    {\"digest\": \"00ab\"}");
        let results = value::from_json(&text).unwrap().as_table().unwrap()["results"].clone();
        assert_eq!(results.as_array().unwrap().len(), 2);
    }
}
