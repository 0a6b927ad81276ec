//! Seeded workload generator: every byte the server sees comes from
//! here, as JSONL request lines.
//!
//! A connection's stream is a fixed setup prefix (floorplan
//! definitions, named delta bases, one warm-up job per cache entry the
//! timed stream reads) followed by an endless sequence of units: one
//! job line, or for `floorplan_churn` a floorplan line and its three
//! jobs. Line `k` of connection `c` is a pure function of
//! `(workload, seed, c, k)`, so two runs with the same seed send
//! byte-identical streams however far each one gets.

use std::fmt::Write as _;

/// The benchmark's traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Dense 64-block floorplans with a warm cache: steady grids,
    /// delta re-solves, envelope bisection and transients.
    SweepGrid,
    /// 1024-block spectral steady grids and 128×128 map jobs.
    ChipScale,
    /// Never-reused explicit 36-block floorplans: cache misses,
    /// evictions and large-line parsing.
    FloorplanChurn,
    /// Single-scenario steady jobs on 2×2 floorplans: transport and
    /// front-end cost.
    PointQueries,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::SweepGrid,
        Workload::ChipScale,
        Workload::FloorplanChurn,
        Workload::PointQueries,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepGrid => "sweep_grid",
            Workload::ChipScale => "chip_scale",
            Workload::FloorplanChurn => "floorplan_churn",
            Workload::PointQueries => "point_queries",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Tile grid of the floorplan the workload's dense-path layer
    /// probes and kernel shapes use.
    pub fn probe_tiles(self) -> usize {
        match self {
            Workload::SweepGrid | Workload::ChipScale => 8,
            Workload::FloorplanChurn => 6,
            Workload::PointQueries => 2,
        }
    }

    /// Scenario lanes one dense Picard step of this workload carries.
    pub fn lanes(self) -> usize {
        match self {
            Workload::SweepGrid => STEADY_VDD.len() * STEADY_ACT.len() * STEADY_AMB.len(),
            Workload::ChipScale => 2,
            Workload::FloorplanChurn => 6,
            Workload::PointQueries => 1,
        }
    }

    /// Side of the 2-D FFT the workload's spectral or map path runs.
    pub fn fft_side(self) -> usize {
        match self {
            Workload::SweepGrid => 16,
            Workload::ChipScale => 128,
            Workload::FloorplanChurn => 64,
            Workload::PointQueries => 4,
        }
    }
}

/// SplitMix64: small, fast, and stable across platforms and releases.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator from a seed.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniformly chosen element.
    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

/// One request line and whether the server answers it (job lines do,
/// floorplan definitions do not).
#[derive(Debug, Clone, PartialEq)]
pub struct Line {
    /// The JSONL text, without its newline.
    pub text: String,
    /// True for a job line.
    pub job: bool,
}

impl Line {
    fn job(text: String) -> Line {
        Line { text, job: true }
    }

    fn floorplan(text: String) -> Line {
        Line { text, job: false }
    }
}

// Axis and budget sets. Budgets come from short lists so identical job
// lines recur; the server still solves each one (only delta bases are
// result-cached), while the correctness reference solves each distinct
// line once.
const STEADY_VDD: [f64; 5] = [0.9, 0.95, 1.0, 1.05, 1.1];
const STEADY_ACT: [f64; 4] = [0.25, 0.5, 0.75, 1.0];
const STEADY_AMB: [f64; 3] = [300.0, 325.0, 350.0];
const DYNAMIC_W: [f64; 4] = [0.6, 0.8, 1.0, 1.2];
const LEAKAGE_W: [f64; 3] = [0.04, 0.06, 0.08];
const TRANSIENT_STEPS: usize = 100;
const TRANSIENT_DT: f64 = 2e-4;

/// Relative job-kind weights of `sweep_grid`, chosen so each kind
/// takes a comparable share of worker time. Measured per-job costs
/// (traced run, 64 blocks): steady grid and delta ~0.7 ms, 100-step
/// transient ~5 ms, envelope ~9 ms.
const SWEEP_MIX: &[(Kind, usize)] = &[
    (Kind::Steady, 13),
    (Kind::Delta, 13),
    (Kind::Envelope, 1),
    (Kind::Transient, 2),
];
/// `chip_scale`: one spectral steady grid per three map jobs (~35 ms
/// and ~19 ms of service), so the median latency sits inside the map
/// jobs' mode and p95 inside the spectral jobs', not on an edge between
/// modes where run-to-run noise would flip it.
const CHIP_MIX: &[(Kind, usize)] = &[(Kind::Spectral, 1), (Kind::Map, 3)];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Steady,
    Delta,
    Envelope,
    Transient,
    Spectral,
    Map,
}

/// Job kinds are dealt from shuffled decks holding each kind its
/// weight's number of times, so every run sends the mix in the same
/// proportions and only the order and parameters vary with the seed.
fn deal(deck: &mut Vec<Kind>, mix: &[(Kind, usize)], rng: &mut Rng) -> Kind {
    if deck.is_empty() {
        for &(kind, weight) in mix {
            deck.extend(std::iter::repeat_n(kind, weight));
        }
        for i in (1..deck.len()).rev() {
            deck.swap(i, rng.below(i + 1));
        }
    }
    deck.pop().unwrap_or(mix[0].0)
}

fn list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v:?}")).collect();
    format!("[{}]", items.join(", "))
}

fn tiled_floorplan(name: &str, width: f64, tiles: usize, seed: u64) -> String {
    format!(
        "{{\"type\": \"floorplan\", \"name\": \"{name}\", \"geometry\": {{\"width\": {width:?}}}, \
         \"tiles\": {{\"rows\": {tiles}, \"cols\": {tiles}, \"p_min\": 0.005, \"p_max\": 0.02, \"seed\": {seed}}}}}"
    )
}

/// Die width of the `i`-th shared floorplan: distinct widths give every
/// floorplan its own operator fingerprint and cache entry.
fn die_width(i: usize) -> f64 {
    1e-3 * (1.0 + 0.02 * i as f64)
}

fn steady_grid(floorplan: &str, dynamic_w: f64, leakage_w: f64) -> String {
    format!(
        "{{\"type\": \"steady\", \"floorplan\": \"{floorplan}\", \"dynamic_w\": {dynamic_w:?}, \
         \"leakage_w\": {leakage_w:?}, \"vdd_scales\": {}, \"activities\": {}, \"ambients_k\": {}}}",
        list(&STEADY_VDD),
        list(&STEADY_ACT),
        list(&STEADY_AMB)
    )
}

fn transient(floorplan: &str, dynamic_w: f64, leakage_w: f64) -> String {
    format!(
        "{{\"type\": \"transient\", \"floorplan\": \"{floorplan}\", \"dynamic_w\": {dynamic_w:?}, \
         \"leakage_w\": {leakage_w:?}, \"dt_s\": {TRANSIENT_DT:?}, \"steps\": {TRANSIENT_STEPS}}}"
    )
}

fn map_job(floorplan: &str, dynamic_w: f64, leakage_w: f64, vdd: &[f64], side: usize) -> String {
    format!(
        "{{\"type\": \"map\", \"floorplan\": \"{floorplan}\", \"dynamic_w\": {dynamic_w:?}, \
         \"leakage_w\": {leakage_w:?}, \"vdd_scales\": {}, \"grid\": {{\"nx\": {side}, \"ny\": {side}}}}}",
        list(vdd)
    )
}

/// The setup prefix and unit generator of one connection.
#[derive(Debug, Clone)]
pub struct Stream {
    workload: Workload,
    rng: Rng,
    conn: usize,
    units: usize,
    deck: Vec<Kind>,
    /// Floorplan definitions, delta bases and warm-up jobs.
    pub setup: Vec<Line>,
}

impl Stream {
    /// Connection `conn`'s stream of `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64, conn: usize) -> Stream {
        // Shared definitions come from the workload-level generator so
        // both connections define byte-identical floorplans (one cache
        // entry each on the server); jobs come from a per-connection one.
        let mut shared = Rng::new(seed ^ 0x5eed_0000 ^ workload as u64);
        let setup = setup_lines(workload, &mut shared, conn);
        let rng = Rng::new(
            seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ ((conn as u64 + 1) << 32) ^ workload as u64,
        );
        Stream {
            workload,
            rng,
            conn,
            units: 0,
            deck: Vec::new(),
            setup,
        }
    }

    /// The next unit of the endless timed stream.
    pub fn next_unit(&mut self) -> Vec<Line> {
        let unit = self.units;
        self.units += 1;
        let rng = &mut self.rng;
        match self.workload {
            Workload::SweepGrid => {
                let kind = deal(&mut self.deck, SWEEP_MIX, rng);
                let fp = rng.below(SWEEP_FLOORPLANS);
                let (d, l) = (rng.pick(&DYNAMIC_W), rng.pick(&LEAKAGE_W));
                let text = match kind {
                    Kind::Steady => steady_grid(&format!("g{fp}"), d, l),
                    Kind::Delta => format!(
                        "{{\"type\": \"delta\", \"base\": \"b{fp}\", \"dynamic_w\": {d:?}, \"leakage_w\": {l:?}}}"
                    ),
                    Kind::Envelope => envelope(&format!("g{fp}"), rng.pick(&ENVELOPE_W)),
                    _ => transient(&format!("g{fp}"), d, l),
                };
                vec![Line::job(text)]
            }
            Workload::ChipScale => {
                let kind = deal(&mut self.deck, CHIP_MIX, rng);
                let (d, l) = (rng.pick(&DYNAMIC_W), rng.pick(&LEAKAGE_W));
                let text = if kind == Kind::Spectral {
                    format!(
                        "{{\"type\": \"steady\", \"floorplan\": \"c{}\", \"dynamic_w\": {:?}, \
                         \"leakage_w\": {l:?}, \"vdd_scales\": [0.95, 1.0, 1.05], \"activities\": [0.5, 1.0]}}",
                        rng.below(2),
                        d * 4.0
                    )
                } else {
                    let v = rng.pick(&STEADY_VDD);
                    map_job("m0", d, l, &[v, v + 0.05], 128)
                };
                vec![Line::job(text)]
            }
            Workload::FloorplanChurn => {
                let name = format!("u{}_{unit}", self.conn);
                let plan = churn_floorplan(&name, rng);
                let (d, l) = (rng.pick(&DYNAMIC_W), rng.pick(&LEAKAGE_W));
                vec![
                    Line::floorplan(plan),
                    Line::job(format!(
                        "{{\"type\": \"steady\", \"floorplan\": \"{name}\", \"dynamic_w\": {d:?}, \
                         \"leakage_w\": {l:?}, \"vdd_scales\": [0.9, 1.0, 1.1], \"activities\": [0.5, 1.0]}}"
                    )),
                    Line::job(transient(&name, d, l)),
                    Line::job(map_job(&name, d, l, &[1.0], 64)),
                ]
            }
            Workload::PointQueries => {
                let text = format!(
                    "{{\"type\": \"steady\", \"floorplan\": \"q{}\", \"dynamic_w\": {:?}, \"leakage_w\": {:?}, \
                     \"vdd_scales\": [{:?}], \"activities\": [{:?}]}}",
                    rng.below(POINT_FLOORPLANS),
                    rng.pick(&DYNAMIC_W),
                    rng.pick(&LEAKAGE_W),
                    rng.pick(&STEADY_VDD),
                    rng.pick(&STEADY_ACT)
                );
                vec![Line::job(text)]
            }
        }
    }
}

const SWEEP_FLOORPLANS: usize = 8;
const POINT_FLOORPLANS: usize = 4;
/// Envelope budgets: high enough that every fiber runs away inside
/// the 300–450 K ambient interval, so the bisection brackets.
const ENVELOPE_W: [f64; 3] = [2.5, 3.0, 3.5];

fn envelope(floorplan: &str, dynamic_w: f64) -> String {
    format!(
        "{{\"type\": \"envelope\", \"floorplan\": \"{floorplan}\", \"dynamic_w\": {dynamic_w:?}, \
         \"leakage_w\": 0.3, \"vdd_scales\": [1.0, 1.1], \"activities\": [0.5, 1.0], \
         \"axis\": \"ambient_k\", \"lo\": 300.0, \"hi\": 450.0, \"tolerance\": 2.0}}"
    )
}

fn setup_lines(workload: Workload, rng: &mut Rng, conn: usize) -> Vec<Line> {
    let mut lines = Vec::new();
    match workload {
        Workload::SweepGrid => {
            for i in 0..SWEEP_FLOORPLANS {
                let seed = rng.next_u64() >> 40;
                lines.push(Line::floorplan(tiled_floorplan(
                    &format!("g{i}"),
                    die_width(i),
                    8,
                    seed,
                )));
            }
            for i in 0..SWEEP_FLOORPLANS {
                let base = steady_grid(&format!("g{i}"), 0.8, 0.06).replacen(
                    "\"type\": \"steady\",",
                    &format!("\"type\": \"steady\", \"name\": \"b{i}\","),
                    1,
                );
                lines.push(Line::job(base));
            }
            // Warm-up: the first connection fills every cache entry the
            // stream reads (delta base results, transient propagators);
            // the second only defines its names.
            if conn == 0 {
                for i in 0..SWEEP_FLOORPLANS {
                    lines.push(Line::job(format!(
                        "{{\"type\": \"delta\", \"base\": \"b{i}\", \"dynamic_w\": 0.6}}"
                    )));
                    lines.push(Line::job(transient(&format!("g{i}"), 0.8, 0.06)));
                }
            }
        }
        Workload::ChipScale => {
            for i in 0..2 {
                let seed = rng.next_u64() >> 40;
                lines.push(Line::floorplan(tiled_floorplan(
                    &format!("c{i}"),
                    die_width(i),
                    32,
                    seed,
                )));
            }
            let seed = rng.next_u64() >> 40;
            lines.push(Line::floorplan(tiled_floorplan(
                "m0",
                die_width(2),
                8,
                seed,
            )));
            if conn == 0 {
                for i in 0..2 {
                    lines.push(Line::job(format!(
                        "{{\"type\": \"steady\", \"floorplan\": \"c{i}\", \"dynamic_w\": 3.2, \"leakage_w\": 0.06}}"
                    )));
                }
                lines.push(Line::job(map_job("m0", 0.8, 0.06, &[1.0], 128)));
            }
        }
        Workload::FloorplanChurn => {}
        Workload::PointQueries => {
            for i in 0..POINT_FLOORPLANS {
                let seed = rng.next_u64() >> 40;
                lines.push(Line::floorplan(tiled_floorplan(
                    &format!("q{i}"),
                    die_width(i),
                    2,
                    seed,
                )));
            }
            if conn == 0 {
                for i in 0..POINT_FLOORPLANS {
                    lines.push(Line::job(format!(
                        "{{\"type\": \"steady\", \"floorplan\": \"q{i}\", \"dynamic_w\": 0.8, \"leakage_w\": 0.06}}"
                    )));
                }
            }
        }
    }
    lines
}

/// An explicit 36-block floorplan line (about 3 KB): one block per cell
/// of a 6×6 partition of the 1 mm die, each with a random size and
/// offset inside its cell, so blocks never overlap.
fn churn_floorplan(name: &str, rng: &mut Rng) -> String {
    const CELLS: usize = 6;
    const MARGIN: f64 = 1e-7;
    let cell = 1e-3 / CELLS as f64;
    let mut blocks = String::new();
    for row in 0..CELLS {
        for col in 0..CELLS {
            let w = cell * (0.5 + 0.4 * rng.unit());
            let l = cell * (0.5 + 0.4 * rng.unit());
            // A 0.1 µm margin keeps neighbours apart after rounding.
            let cx = cell * col as f64 + MARGIN + w / 2.0 + (cell - w - 2.0 * MARGIN) * rng.unit();
            let cy = cell * row as f64 + MARGIN + l / 2.0 + (cell - l - 2.0 * MARGIN) * rng.unit();
            let power = 0.002 + 0.018 * rng.unit();
            if !blocks.is_empty() {
                blocks.push_str(", ");
            }
            let _ = write!(
                blocks,
                "{{\"name\": \"b{}\", \"cx\": {:.9}, \"cy\": {:.9}, \"w\": {:.9}, \"l\": {:.9}, \"power\": {:.6}}}",
                row * CELLS + col,
                cx,
                cy,
                w,
                l,
                power
            );
        }
    }
    format!("{{\"type\": \"floorplan\", \"name\": \"{name}\", \"blocks\": [{blocks}]}}")
}

/// Layer probes: one job of every kind on a tiled floorplan of the
/// workload's dense shape. The traced run uses them only for the
/// per-layer metrics of job kinds the workload's own stream never
/// sends.
pub fn probe_lines(workload: Workload) -> Vec<Line> {
    let tiles = workload.probe_tiles();
    let mut lines = vec![Line::floorplan(tiled_floorplan(
        "p0",
        die_width(0),
        tiles,
        7,
    ))];
    let base = steady_grid("p0", 0.8, 0.06).replacen(
        "\"type\": \"steady\",",
        "\"type\": \"steady\", \"name\": \"pb\", \"backend\": \"dense\",",
        1,
    );
    lines.push(Line::job(base));
    lines.push(Line::job(
        "{\"type\": \"delta\", \"base\": \"pb\", \"dynamic_w\": 0.6}".to_string(),
    ));
    lines.push(Line::job(envelope("p0", 3.0)));
    lines.push(Line::job(transient("p0", 0.8, 0.06)));
    lines.push(Line::job(map_job("p0", 0.8, 0.06, &[1.0, 1.05], 64)));
    lines.push(Line::job(steady_grid("p0", 0.8, 0.06).replacen(
        "\"type\": \"steady\",",
        "\"type\": \"steady\", \"backend\": \"spectral\",",
        1,
    )));
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prefix(workload: Workload, seed: u64, conn: usize, units: usize) -> Vec<Line> {
        let mut stream = Stream::new(workload, seed, conn);
        let mut lines = stream.setup.clone();
        for _ in 0..units {
            lines.extend(stream.next_unit());
        }
        lines
    }

    #[test]
    fn same_seed_gives_byte_identical_streams() {
        for workload in Workload::ALL {
            for conn in 0..2 {
                assert_eq!(
                    prefix(workload, 42, conn, 300),
                    prefix(workload, 42, conn, 300),
                    "{}",
                    workload.name()
                );
            }
        }
    }

    #[test]
    fn different_seeds_give_different_streams() {
        for workload in Workload::ALL {
            assert_ne!(
                prefix(workload, 1, 0, 50),
                prefix(workload, 2, 0, 50),
                "{}",
                workload.name()
            );
        }
    }

    #[test]
    fn connections_draw_different_jobs_over_shared_floorplans() {
        for workload in [
            Workload::SweepGrid,
            Workload::ChipScale,
            Workload::PointQueries,
        ] {
            let a = Stream::new(workload, 9, 0);
            let b = Stream::new(workload, 9, 1);
            let defs =
                |s: &Stream| -> Vec<Line> { s.setup.iter().filter(|l| !l.job).cloned().collect() };
            assert_eq!(defs(&a), defs(&b), "{}", workload.name());
            assert_ne!(prefix(workload, 9, 0, 50), prefix(workload, 9, 1, 50));
        }
    }

    #[test]
    fn every_generated_line_parses() {
        for workload in Workload::ALL {
            let mut parser = ptherm_fleet::RequestParser::new();
            for line in prefix(workload, 5, 0, 40)
                .iter()
                .chain(&probe_lines(workload)[..1])
            {
                parser
                    .parse_line(&line.text)
                    .unwrap_or_else(|e| panic!("{}: {e}: {}", workload.name(), line.text));
            }
            let mut probes = ptherm_fleet::RequestParser::new();
            for line in probe_lines(workload) {
                probes.parse_line(&line.text).expect("probe line parses");
            }
        }
    }

    #[test]
    fn churn_floorplans_are_about_three_kilobytes_and_never_reused() {
        let lines = prefix(Workload::FloorplanChurn, 3, 0, 40);
        let plans: Vec<&Line> = lines.iter().filter(|l| !l.job).collect();
        assert_eq!(plans.len(), 40);
        for plan in &plans {
            assert!(
                (2500..4500).contains(&plan.text.len()),
                "{}",
                plan.text.len()
            );
        }
        let mut texts: Vec<&str> = plans.iter().map(|l| l.text.as_str()).collect();
        texts.sort_unstable();
        texts.dedup();
        assert_eq!(texts.len(), 40);
    }
}
