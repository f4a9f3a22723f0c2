//! # pipmcoll-bench — figure-regeneration harnesses
//!
//! One binary per evaluation figure of the paper (see DESIGN.md §4). Every
//! harness prints an aligned table to stdout and writes
//! `results/figNN_*.csv` plus a JSON sidecar with the run configuration.
//!
//! Scale control: the harnesses default to the paper's 128 nodes × 18
//! ranks/node. Set `PIPMCOLL_NODES` / `PIPMCOLL_PPN` to shrink for smoke
//! runs (the integration tests do this).

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

pub mod microbench;

use pipmcoll_core::{run_collective, CollectiveSpec, LibraryProfile};
use pipmcoll_model::{presets, MachineConfig};

/// Nodes used by the harnesses (paper: 128; override: `PIPMCOLL_NODES`).
pub fn harness_nodes() -> usize {
    std::env::var("PIPMCOLL_NODES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(128)
}

/// Ranks per node (paper: 18; override: `PIPMCOLL_PPN`).
pub fn harness_ppn() -> usize {
    std::env::var("PIPMCOLL_PPN")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(18)
}

/// The paper's machine at the harness scale.
pub fn harness_machine(nodes: usize) -> MachineConfig {
    presets::bebop(nodes, harness_ppn())
}

/// Where result files go.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("PIPMCOLL_RESULTS").unwrap_or_else(|_| "results".to_string());
    let p = PathBuf::from(dir);
    fs::create_dir_all(&p).expect("create results dir");
    p
}

/// The fabric-perf sections that may contribute to `BENCH_fabric.json`,
/// in emission order (`fabric_sweep` → `"sweep"`, `hotpath_sweep` →
/// `"hotpath"`, `pipmcoll-tune` → `"tune"`).
const BENCH_FABRIC_SECTIONS: [&str; 3] = ["sweep", "hotpath", "tune"];

/// Write `contents` to `path` atomically: write a `.tmp` sibling, then
/// rename over the target. A reader (CI artifact upload, a concurrent
/// bench bin) can never observe a half-written file, and two bins
/// merging into the same root file can't interleave partial writes.
pub fn atomic_write(path: &std::path::Path, contents: &str) {
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, contents).unwrap_or_else(|e| panic!("write {}: {e}", tmp.display()));
    fs::rename(&tmp, path)
        .unwrap_or_else(|e| panic!("rename {} -> {}: {e}", tmp.display(), path.display()));
}

/// Merge one named section into `BENCH_fabric.json` at the repo root
/// (override the location with `PIPMCOLL_BENCH_ROOT`).
///
/// Each emitting bin owns one section (`fabric_sweep` → `"sweep"`,
/// `hotpath_sweep` → `"hotpath"`), a JSON object; its first fields
/// become the run's `nproc` (CPUs available) and `commit` (the sources'
/// `git describe --always --dirty`). The section body is kept as a
/// fragment under the results dir, and the root file is regenerated
/// from every fragment present — so the bins can run in any order or
/// alone and the perf-trajectory file stays complete.
pub fn write_bench_fabric_section(section: &str, body_json: &str) {
    assert!(
        BENCH_FABRIC_SECTIONS.contains(&section),
        "unknown BENCH_fabric section {section:?}"
    );
    let fields = body_json
        .trim_start()
        .strip_prefix('{')
        .expect("a BENCH_fabric section is a JSON object");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let body = format!(
        "{{\n  \"nproc\": {nproc},\n  \"commit\": {},{fields}",
        json_str(&git_commit())
    );
    let dir = results_dir();
    atomic_write(&dir.join(format!("BENCH_fragment_{section}.json")), &body);
    let mut out = String::from("{\n");
    let mut first = true;
    for name in BENCH_FABRIC_SECTIONS {
        let frag = dir.join(format!("BENCH_fragment_{name}.json"));
        if let Ok(body) = fs::read_to_string(&frag) {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!("\"{name}\": {}", body.trim_end()));
        }
    }
    out.push_str("\n}\n");
    let root = std::env::var("PIPMCOLL_BENCH_ROOT").unwrap_or_else(|_| ".".to_string());
    atomic_write(&PathBuf::from(root).join("BENCH_fabric.json"), &out);
}

/// The commit the sources were built from, `-dirty` when they differ
/// from it; "unknown" outside a git checkout.
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["-C", env!("CARGO_MANIFEST_DIR")])
        .args(["describe", "--always", "--dirty", "--abbrev=40"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Simulate one collective and return its latency in microseconds.
pub fn measure_us(lib: LibraryProfile, machine: MachineConfig, spec: &CollectiveSpec) -> f64 {
    run_collective(lib, machine, spec)
        .unwrap_or_else(|e| panic!("{} failed: {e}", lib.name()))
        .makespan
        .as_us_f64()
}

/// One plotted line: a label and (x, y) points.
#[derive(Clone, Debug)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// (x, y) points; x is whatever the figure's axis is.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Build a series by applying `f` to each x.
    pub fn build(label: &str, xs: &[f64], mut f: impl FnMut(f64) -> f64) -> Self {
        Series {
            label: label.to_string(),
            points: xs.iter().map(|&x| (x, f(x))).collect(),
        }
    }
}

/// A complete figure: axis names plus its series, ready to print/save.
pub struct Figure {
    /// File stem, e.g. `fig09_scatter_small`.
    pub id: String,
    /// Human title.
    pub title: String,
    /// X-axis name (first CSV column).
    pub x_name: String,
    /// Y-axis name.
    pub y_name: String,
    /// The lines.
    pub series: Vec<Series>,
}

impl Figure {
    /// Render an aligned text table (x down, one column per series).
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {} — {}", self.id, self.title);
        let _ = write!(out, "{:>12}", self.x_name);
        for s in &self.series {
            let _ = write!(out, " {:>16}", s.label);
        }
        let _ = writeln!(out);
        let nx = self.series.first().map_or(0, |s| s.points.len());
        for i in 0..nx {
            let x = self.series[0].points[i].0;
            let _ = write!(out, "{:>12}", format_x(x));
            for s in &self.series {
                debug_assert_eq!(s.points[i].0, x, "series share the x grid");
                let _ = write!(out, " {:>16.3}", s.points[i].1);
            }
            let _ = writeln!(out);
        }
        out
    }

    /// CSV rendering (header `x_name,label1,label2,...`).
    pub fn csv(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{}", self.x_name);
        for s in &self.series {
            let _ = write!(out, ",{}", s.label);
        }
        let _ = writeln!(out);
        let nx = self.series.first().map_or(0, |s| s.points.len());
        for i in 0..nx {
            let _ = write!(out, "{}", self.series[0].points[i].0);
            for s in &self.series {
                let _ = write!(out, ",{}", s.points[i].1);
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Print the table and write `<results>/<id>.csv` + `<id>.json`.
    pub fn emit(&self) {
        println!("{}", self.table());
        let dir = results_dir();
        fs::write(dir.join(format!("{}.csv", self.id)), self.csv()).expect("write csv");
        fs::write(dir.join(format!("{}.json", self.id)), self.meta_json()).expect("write json");
    }

    /// The JSON sidecar describing the run configuration (hand-rolled —
    /// the workspace carries no serialization dependency).
    fn meta_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"id\": {},", json_str(&self.id));
        let _ = writeln!(out, "  \"title\": {},", json_str(&self.title));
        let _ = writeln!(out, "  \"x\": {},", json_str(&self.x_name));
        let _ = writeln!(out, "  \"y\": {},", json_str(&self.y_name));
        let _ = writeln!(out, "  \"nodes\": {},", harness_nodes());
        let _ = writeln!(out, "  \"ppn\": {},", harness_ppn());
        let labels: Vec<String> = self.series.iter().map(|s| json_str(&s.label)).collect();
        let _ = writeln!(out, "  \"series\": [{}]", labels.join(", "));
        out.push('}');
        out
    }

    /// Normalise every series to the first one (the paper's Figs. 9–14 plot
    /// execution time scaled to PiP-MColl's).
    pub fn normalised_to_first(mut self) -> Self {
        let base: Vec<f64> = self.series[0].points.iter().map(|p| p.1).collect();
        for s in &mut self.series {
            for (i, p) in s.points.iter_mut().enumerate() {
                p.1 /= base[i];
            }
        }
        self.y_name = format!("{} (normalised to {})", self.y_name, self.series[0].label);
        self
    }
}

/// Quote and escape a string for JSON output.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn format_x(x: f64) -> String {
    if x >= 1024.0 * 1024.0 && (x as u64).is_multiple_of(1024 * 1024) {
        format!("{}M", x as u64 / (1024 * 1024))
    } else if x >= 1024.0 && (x as u64).is_multiple_of(1024) {
        format!("{}k", x as u64 / 1024)
    } else {
        format!("{}", x)
    }
}

/// Sweep a size grid for a set of libraries at the harness scale —
/// the common shape of Figs. 9–14.
pub fn library_sweep(
    id: &str,
    title: &str,
    x_name: &str,
    xs: &[usize],
    libs: &[LibraryProfile],
    spec_of: impl Fn(usize) -> CollectiveSpec,
) -> Figure {
    let machine = harness_machine(harness_nodes());
    let series = libs
        .iter()
        .map(|&lib| {
            eprintln!("  running {} ...", lib.name());
            Series {
                label: lib.name().to_string(),
                points: xs
                    .iter()
                    .map(|&x| (x as f64, measure_us(lib, machine, &spec_of(x))))
                    .collect(),
            }
        })
        .collect();
    Figure {
        id: id.to_string(),
        title: title.to_string(),
        x_name: x_name.to_string(),
        y_name: "time (us)".to_string(),
        series,
    }
}

/// Sweep node counts for a set of libraries at fixed size — the common
/// shape of Figs. 6–8.
pub fn node_sweep(
    id: &str,
    title: &str,
    nodes_grid: &[usize],
    libs: &[LibraryProfile],
    spec: CollectiveSpec,
) -> Figure {
    let series = libs
        .iter()
        .map(|&lib| {
            eprintln!("  running {} ...", lib.name());
            Series {
                label: lib.name().to_string(),
                points: nodes_grid
                    .iter()
                    .map(|&n| (n as f64, measure_us(lib, harness_machine(n), &spec)))
                    .collect(),
            }
        })
        .collect();
    Figure {
        id: id.to_string(),
        title: title.to_string(),
        x_name: "nodes".to_string(),
        y_name: "time (us)".to_string(),
        series,
    }
}

/// The doubling size grids used by the figures.
pub mod grids {
    /// Fig 9: scatter small sizes, 16 B – 1 kB.
    pub fn small_bytes() -> Vec<usize> {
        (0..7).map(|i| 16usize << i).collect()
    }

    /// Fig 10: allgather small sizes, 16 B – 512 B.
    pub fn small_bytes_512() -> Vec<usize> {
        (0..6).map(|i| 16usize << i).collect()
    }

    /// Fig 11: allreduce small counts (doubles), 2 – 128 (16 B – 1 kB).
    pub fn small_counts() -> Vec<usize> {
        (0..7).map(|i| 2usize << i).collect()
    }

    /// Figs 12–13: medium/large sizes, 1 kB – 512 kB.
    pub fn large_bytes() -> Vec<usize> {
        (0..10).map(|i| 1024usize << i).collect()
    }

    /// Fig 14: medium/large counts (doubles), 1 k – 512 k.
    pub fn large_counts() -> Vec<usize> {
        (0..10).map(|i| 1024usize << i).collect()
    }

    /// Figs 6–8: node scaling grid up to `max` (paper: 128).
    pub fn node_grid(max: usize) -> Vec<usize> {
        let mut v = Vec::new();
        let mut n = 2usize;
        while n <= max {
            v.push(n);
            n *= 2;
        }
        if v.last() != Some(&max) && max >= 2 {
            v.push(max);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_match_paper_ranges() {
        assert_eq!(grids::small_bytes(), vec![16, 32, 64, 128, 256, 512, 1024]);
        assert_eq!(grids::large_bytes().last(), Some(&(512 * 1024)));
        assert_eq!(grids::node_grid(128), vec![2, 4, 8, 16, 32, 64, 128]);
        assert_eq!(grids::node_grid(6), vec![2, 4, 6]);
    }

    #[test]
    fn figure_normalisation() {
        let f = Figure {
            id: "t".into(),
            title: "t".into(),
            x_name: "x".into(),
            y_name: "us".into(),
            series: vec![
                Series {
                    label: "a".into(),
                    points: vec![(1.0, 2.0), (2.0, 4.0)],
                },
                Series {
                    label: "b".into(),
                    points: vec![(1.0, 4.0), (2.0, 4.0)],
                },
            ],
        };
        let n = f.normalised_to_first();
        assert_eq!(n.series[0].points, vec![(1.0, 1.0), (2.0, 1.0)]);
        assert_eq!(n.series[1].points, vec![(1.0, 2.0), (2.0, 1.0)]);
    }

    #[test]
    fn table_and_csv_render() {
        let f = Figure {
            id: "x".into(),
            title: "demo".into(),
            x_name: "bytes".into(),
            y_name: "us".into(),
            series: vec![Series {
                label: "lib".into(),
                points: vec![(16.0, 1.5)],
            }],
        };
        assert!(f.table().contains("demo"));
        assert!(f.csv().starts_with("bytes,lib"));
    }

    #[test]
    fn x_formatting() {
        assert_eq!(format_x(16.0), "16");
        assert_eq!(format_x(2048.0), "2k");
        assert_eq!(format_x((2 * 1024 * 1024) as f64), "2M");
    }
}
