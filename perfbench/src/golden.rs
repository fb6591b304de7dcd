//! Committed digests of the reference outputs for the default seed.
//!
//! The run compares every response with the in-process replay, so a
//! change that alters the bytes on every path at once would still pass
//! that check. These digests pin the bytes themselves: at the default
//! seed, the replay's outputs must match `golden/<workload>.txt`.

use crate::stats::Tally;
use crate::Ctx;

/// Timed ops per client pinned by the golden file.
pub const OPS: usize = 16;

/// The seed the golden digests were taken at.
pub const DEFAULT_SEED: u64 = 1;

fn path(workload: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{workload}.txt"))
}

/// At the default seed, checks (or with `--write-golden`, rewrites) the
/// golden file. Lines present in only one side are fine when the run
/// was too short to reach them; every line both sides have must agree.
pub fn check(ctx: &Ctx, lines: &[String], tally: &mut Tally) {
    if ctx.seed != DEFAULT_SEED || ctx.trace {
        return;
    }
    let path = path(ctx.workload);
    if ctx.write_golden {
        let text: String = lines.iter().map(|l| format!("{l}\n")).collect();
        let ok = std::fs::write(&path, text).is_ok();
        tally.check("writing the golden digests", ok, || {
            path.display().to_string()
        });
        return;
    }
    let Ok(text) = std::fs::read_to_string(&path) else {
        tally.check("golden digests", false, || {
            format!("{} is missing", path.display())
        });
        return;
    };
    let want: Vec<&str> = text.lines().collect();
    // A line is "<what> <index> <fields...>"; the first two name it.
    let key = |l: &str| l.split(' ').take(2).collect::<Vec<_>>().join(" ");
    let mismatched: Vec<String> = lines
        .iter()
        .filter(|l| want.iter().any(|w| key(w) == key(l) && *w != l.as_str()))
        .cloned()
        .collect();
    let matched = lines.iter().filter(|l| want.contains(&l.as_str())).count();
    tally.check(
        "golden digests",
        mismatched.is_empty() && matched > 0,
        || {
            format!(
                "{} of {} lines differ from {}: {:?}",
                mismatched.len(),
                lines.len(),
                path.display(),
                mismatched.first()
            )
        },
    );
}
