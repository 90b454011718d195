//! The golden table: (kernel, mode) → cycles, instructions, µ-ops for all
//! 32 × 6 cells, written by `bench golden` into `golden.tsv` and compiled
//! into the binary. Every cell a run produces is checked against it.

use helios::{FusionMode, SimStats, Trace, Workload};
use std::collections::HashMap;

/// The committed table.
const GOLDEN_TSV: &str = include_str!("../golden.tsv");

const HEADER: &str = "kernel\tmode\tcycles\tinstructions\tuops";

/// Expected statistics of one cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cell {
    pub cycles: u64,
    pub instructions: u64,
    pub uops: u64,
}

impl Cell {
    fn of(stats: &SimStats) -> Cell {
        Cell {
            cycles: stats.cycles,
            instructions: stats.instructions,
            uops: stats.uops,
        }
    }
}

pub struct Golden {
    cells: HashMap<(String, String), Cell>,
}

impl Golden {
    /// The table compiled into this binary.
    pub fn embedded() -> Golden {
        Golden::parse(GOLDEN_TSV).expect("the committed golden.tsv parses")
    }

    pub fn parse(text: &str) -> Result<Golden, String> {
        let mut lines = text.lines();
        if lines.next() != Some(HEADER) {
            return Err(format!("golden table must start with `{HEADER}`"));
        }
        let mut cells = HashMap::new();
        for (i, line) in lines.enumerate() {
            let f: Vec<&str> = line.split('\t').collect();
            let num = |k: usize| f.get(k).and_then(|v| v.parse::<u64>().ok());
            match (f.len(), num(2), num(3), num(4)) {
                (5, Some(cycles), Some(instructions), Some(uops)) => {
                    let cell = Cell {
                        cycles,
                        instructions,
                        uops,
                    };
                    if cells
                        .insert((f[0].to_string(), f[1].to_string()), cell)
                        .is_some()
                    {
                        return Err(format!("golden line {}: duplicate cell", i + 2));
                    }
                }
                _ => return Err(format!("golden line {}: malformed `{line}`", i + 2)),
            }
        }
        Ok(Golden { cells })
    }

    /// Renders rows in the order given, in the format [`Golden::parse`] reads.
    pub fn render<'a>(
        rows: impl IntoIterator<Item = (&'a str, FusionMode, &'a SimStats)>,
    ) -> String {
        let mut out = format!("{HEADER}\n");
        for (kernel, mode, s) in rows {
            out += &format!(
                "{kernel}\t{}\t{}\t{}\t{}\n",
                mode.name(),
                s.cycles,
                s.instructions,
                s.uops
            );
        }
        out
    }

    pub fn cell(&self, kernel: &str, mode: FusionMode) -> Option<Cell> {
        self.cells
            .get(&(kernel.to_string(), mode.name().to_string()))
            .copied()
    }

    /// Checks one simulated cell.
    pub fn check(&self, kernel: &str, mode: FusionMode, stats: &SimStats) -> Result<(), String> {
        let want = self
            .cell(kernel, mode)
            .ok_or_else(|| format!("{kernel}/{}: no golden row", mode.name()))?;
        let got = Cell::of(stats);
        if got != want {
            return Err(format!(
                "{kernel}/{}: got {got:?}, golden {want:?}",
                mode.name()
            ));
        }
        Ok(())
    }

    /// Checks a recorded trace: the program's reported checksums against
    /// the workload's reference and its length against the golden
    /// instruction count.
    pub fn check_trace(&self, w: &Workload, trace: &Trace) -> Result<(), String> {
        if trace.output() != w.expected.as_slice() {
            return Err(format!(
                "{}: trace output {:?}, expected {:?}",
                w.name,
                trace.output(),
                w.expected
            ));
        }
        let want = self
            .cell(w.name, FusionMode::NoFusion)
            .ok_or_else(|| format!("{}: no golden row", w.name))?
            .instructions;
        if trace.len() != want {
            return Err(format!(
                "{}: trace holds {} µ-ops, golden {want}",
                w.name,
                trace.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedded_table_covers_every_cell() {
        let g = Golden::embedded();
        assert_eq!(
            g.cells.len(),
            helios::all_workloads().len() * FusionMode::ALL.len()
        );
        let cycles: u64 = g.cells.values().map(|c| c.cycles).sum();
        assert_eq!(cycles, 132_821_700, "the full grid's cycles never change");
    }

    /// The NoFusion and Helios rows are the cycle-exact goldens the
    /// repository's `tests/perf_equiv.rs` pins.
    #[test]
    fn agrees_with_perf_equiv_goldens() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../../../../tests/perf_equiv.rs"
        );
        let src = std::fs::read_to_string(path).expect("tests/perf_equiv.rs");
        let g = Golden::embedded();
        let mut rows = 0;
        for line in src.lines().map(str::trim).filter(|l| l.starts_with("(\"")) {
            let f: Vec<&str> = line
                .trim_start_matches('(')
                .trim_end_matches("),")
                .split(", ")
                .map(|s| s.trim_matches('"'))
                .collect();
            let mode = FusionMode::parse(f[1]).expect("mode name");
            let want = Cell {
                cycles: f[2].parse().unwrap(),
                instructions: f[3].parse().unwrap(),
                uops: f[4].parse().unwrap(),
            };
            assert_eq!(g.cell(f[0], mode), Some(want), "{line}");
            rows += 1;
        }
        assert_eq!(rows, 64);
    }

    #[test]
    fn check_flags_any_field_mismatch() {
        let g = Golden::embedded();
        let want = g.cell("fft", FusionMode::Helios).unwrap();
        let mut s = SimStats {
            cycles: want.cycles,
            instructions: want.instructions,
            uops: want.uops,
            ..SimStats::default()
        };
        assert!(g.check("fft", FusionMode::Helios, &s).is_ok());
        s.uops += 1;
        assert!(g.check("fft", FusionMode::Helios, &s).is_err());
        assert!(g.check("no-such-kernel", FusionMode::Helios, &s).is_err());
    }

    #[test]
    fn render_round_trips_through_parse() {
        let s = SimStats {
            cycles: 3,
            instructions: 2,
            uops: 1,
            ..SimStats::default()
        };
        let text = Golden::render([("k", FusionMode::CsfSbr, &s)]);
        let g = Golden::parse(&text).unwrap();
        assert!(g.check("k", FusionMode::CsfSbr, &s).is_ok());
        assert!(Golden::parse("kernel\tmode\n").is_err());
        assert!(Golden::parse(&(text.clone() + "k\tCSF-SBR\t3\t2\t1\n")).is_err());
    }
}
