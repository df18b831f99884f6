//! Seeded inputs: the fixed op sequence of each workload.
//!
//! Every sequence is a function of the workload seed, the corpus source
//! text and the `--seconds` argument only, never of a measurement. Each
//! is built from whole passes over the corpus in which every project
//! appears once, in a seeded order, and the per-op choices rotate so
//! that a run holds the same multiset of ops whatever its seed: seeds
//! change the order, the edited modules and the read targets, not the
//! amount of work.

use std::collections::BTreeMap;

use aji_ast::Project;
use aji_support::Rng;

/// One op in five is an edit on population and hot-drivers.
pub const EDIT_PERIOD: usize = 5;
/// Driver repeat counts on hot-drivers; each project runs at each level
/// equally often.
pub const REPEATS: [u32; 3] = [12, 24, 48];
/// Cached reads sent after each edit on daemon-edits.
pub const READS_PER_EDIT: usize = 4;

/// Nominal seconds of one population pass, one hot-drivers block of 15
/// passes and one daemon-edits pass on a 2-core x86-64 host; they turn
/// `--seconds` into a fixed number of passes.
const POPULATION_PASS_S: f64 = 1.3;
const HOT_BLOCK_S: f64 = 2.0;
const DAEMON_PASS_S: f64 = 7.5;

/// The statement an edit appends to a module. It adds no call, so an
/// edit changes the sources, and every digest over them, but not the
/// call graphs.
pub fn edit_statement(n: usize) -> String {
    format!("\nvar __perfbench_edit_{n} = {n};\n")
}

/// `project` with [`edit_statement`]`(n)` appended to file `module`.
pub fn with_edit(project: &Project, module: usize, n: usize) -> Project {
    let mut p = project.clone();
    p.files[module].src.push_str(&edit_statement(n));
    p
}

/// The path of the module that runs the project's dynamic call graph.
pub fn driver_path(project: &Project) -> &str {
    project.test_driver.as_deref().unwrap_or(&project.main)
}

/// `project` with its driver wrapped in a loop of `repeats` passes. The
/// loop header sits on a line of its own, so every driver location
/// moves down by exactly one line whatever `repeats` is.
pub fn wrap_driver(project: &Project, repeats: u32) -> Project {
    let mut p = project.clone();
    let path = driver_path(project).to_string();
    let file = p
        .files
        .iter_mut()
        .find(|f| f.path == path)
        .expect("every corpus project has its driver file");
    file.src = format!(
        "for (var __r = 0; __r < {repeats}; __r = __r + 1) {{\n{}\n}}\n",
        file.src
    );
    p
}

/// A population or hot-drivers op: one project variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    /// Index of the corpus project.
    pub project: usize,
    /// Index into the workload's variant list.
    pub variant: usize,
    /// Whether the variant carries an edit.
    pub edit: bool,
}

/// A workload's project variants and the op sequence over them.
pub struct Plan {
    pub variants: Vec<Project>,
    pub ops: Vec<Op>,
}

fn passes(seconds: u64, unit_s: f64, multiple: usize) -> usize {
    let units = (seconds as f64 / unit_s).round().max(1.0) as usize;
    units * multiple
}

/// Population: whole passes over the corpus. In pass `j`, project `i` is
/// edited when `(i + j) % EDIT_PERIOD == 0`, in a seeded module.
pub fn population_plan(corpus: &[Project], seed: u64, seconds: u64) -> Plan {
    let mut rng = Rng::seed_from_u64(seed ^ 0x9090_1A71_0000);
    let n_passes = passes(seconds, POPULATION_PASS_S * EDIT_PERIOD as f64, EDIT_PERIOD);
    let mut variants: Vec<Project> = corpus.to_vec();
    let mut edited: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    let mut ops = Vec::new();
    for j in 0..n_passes {
        for i in permutation(&mut rng, corpus.len()) {
            if (i + j) % EDIT_PERIOD == 0 {
                let module = rng.below(corpus[i].files.len() as u64) as usize;
                let variant = *edited.entry((i, module)).or_insert_with(|| {
                    variants.push(with_edit(&corpus[i], module, 0));
                    variants.len() - 1
                });
                ops.push(Op {
                    project: i,
                    variant,
                    edit: true,
                });
            } else {
                ops.push(Op {
                    project: i,
                    variant: i,
                    edit: false,
                });
            }
        }
    }
    Plan { variants, ops }
}

/// Hot-drivers: blocks of 15 passes over the Table-1 projects. In pass
/// `j`, project `i` runs its driver `REPEATS[(i + j + s) % 3]` times,
/// `s` drawn from the seed, and is edited when `(i + j) % EDIT_PERIOD ==
/// 0`; over a block every project meets every (repeat, edit) pairing
/// once.
pub fn hot_plan(corpus: &[Project], seed: u64, seconds: u64) -> Plan {
    let mut rng = Rng::seed_from_u64(seed ^ 0x4077_D21E_0000);
    let block = REPEATS.len() * EDIT_PERIOD;
    let n_passes = passes(seconds, HOT_BLOCK_S, block);
    let shift = rng.below(REPEATS.len() as u64) as usize;
    let mut variants = Vec::new();
    let mut index: BTreeMap<(usize, u32, Option<usize>), usize> = BTreeMap::new();
    let mut ops = Vec::new();
    for j in 0..n_passes {
        for i in permutation(&mut rng, corpus.len()) {
            let repeats = REPEATS[(i + j + shift) % REPEATS.len()];
            let edit = (i + j) % EDIT_PERIOD == 0;
            let module = edit.then(|| rng.below(corpus[i].files.len() as u64) as usize);
            let variant = *index.entry((i, repeats, module)).or_insert_with(|| {
                let wrapped = wrap_driver(&corpus[i], repeats);
                variants.push(match module {
                    Some(m) => with_edit(&wrapped, m, 0),
                    None => wrapped,
                });
                variants.len() - 1
            });
            ops.push(Op {
                project: i,
                variant,
                edit,
            });
        }
    }
    Plan { variants, ops }
}

/// A daemon-edits request group; each is one op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DaemonOp {
    /// Append [`edit_statement`] to a module, `invalidate` its cone,
    /// `analyze` the new sources.
    Edit {
        project: usize,
        module: usize,
        n: usize,
    },
    /// A static `analyze` (a response-cache hit) then a dynamic one
    /// (a hint-layer hit) of the project's current sources.
    ModeSwitch { project: usize },
    /// A static `analyze` of unchanged sources: a response-cache hit.
    Read { project: usize },
}

/// Daemon-edits: whole passes over the corpus. Each project is edited
/// once per pass (edit number = pass), followed by a mode switch when
/// `(i + j)` is even and by [`READS_PER_EDIT`] reads of seeded projects.
pub fn daemon_plan(corpus: &[Project], seed: u64, seconds: u64) -> Vec<DaemonOp> {
    let mut rng = Rng::seed_from_u64(seed ^ 0xDAE3_0E01_0000);
    let n_passes = passes(seconds, DAEMON_PASS_S, 1);
    let mut ops = Vec::new();
    for j in 0..n_passes {
        for i in permutation(&mut rng, corpus.len()) {
            let module = rng.below(corpus[i].files.len() as u64) as usize;
            ops.push(DaemonOp::Edit {
                project: i,
                module,
                n: j,
            });
            if (i + j) % 2 == 0 {
                ops.push(DaemonOp::ModeSwitch { project: i });
            }
            for _ in 0..READS_PER_EDIT {
                let q = rng.below(corpus.len() as u64) as usize;
                ops.push(DaemonOp::Read { project: q });
            }
        }
    }
    ops
}

fn permutation(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    /// A text rendering of a plan — op sequence and every variant's
    /// sources — for byte-identity tests.
    fn render(plan: &Plan) -> String {
        let mut out = String::new();
        for op in &plan.ops {
            let _ = writeln!(out, "{op:?}");
        }
        for p in &plan.variants {
            let _ = writeln!(out, "{}", p.to_json());
        }
        out
    }

    fn small_corpus() -> Vec<Project> {
        aji_corpus::table1_benchmarks()
    }

    #[test]
    fn inputs_are_byte_identical_for_a_seed() {
        let corpus = small_corpus();
        let a = render(&population_plan(&corpus, 7, 1));
        assert_eq!(a, render(&population_plan(&corpus, 7, 1)));
        assert_ne!(a, render(&population_plan(&corpus, 8, 1)));
        let h = render(&hot_plan(&corpus, 7, 1));
        assert_eq!(h, render(&hot_plan(&corpus, 7, 1)));
        assert_ne!(h, render(&hot_plan(&corpus, 8, 1)));
        assert_eq!(daemon_plan(&corpus, 7, 1), daemon_plan(&corpus, 7, 1));
        assert_ne!(daemon_plan(&corpus, 7, 1), daemon_plan(&corpus, 8, 1));
    }

    #[test]
    fn seeds_change_order_not_the_op_multiset() {
        let corpus = small_corpus();
        let census = |plan: &Plan| {
            let mut c: BTreeMap<(usize, bool, String), usize> = BTreeMap::new();
            for op in &plan.ops {
                let v = &plan.variants[op.variant];
                let header = v
                    .file(driver_path(v))
                    .unwrap()
                    .src
                    .lines()
                    .next()
                    .unwrap()
                    .to_string();
                *c.entry((op.project, op.edit, header)).or_default() += 1;
            }
            c
        };
        assert_eq!(
            census(&hot_plan(&corpus, 1, 3)),
            census(&hot_plan(&corpus, 2, 3)),
            "each project meets the same repeat levels and edit counts"
        );
        let edits = |seed| {
            population_plan(&corpus, seed, 1)
                .ops
                .iter()
                .filter(|o| o.edit)
                .map(|o| o.project)
                .collect::<std::collections::BTreeSet<_>>()
        };
        assert_eq!(edits(1).len(), corpus.len());
        assert_eq!(edits(1), edits(2));
    }

    #[test]
    fn wrapping_shifts_every_driver_line_by_one() {
        let p = &small_corpus()[0];
        let w = wrap_driver(p, 24);
        let before = &p.file(driver_path(p)).unwrap().src;
        let after = &w.file(driver_path(p)).unwrap().src;
        assert_eq!(
            after.lines().next(),
            Some("for (var __r = 0; __r < 24; __r = __r + 1) {")
        );
        assert!(after
            .lines()
            .skip(1)
            .zip(before.lines())
            .all(|(a, b)| a == b));
    }
}
