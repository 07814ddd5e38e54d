//! The prepare step: generates a workload's scenario directories (and the
//! power-law snapshot). It runs in its own process, so neither `setup_s`
//! nor `peak_rss_mb` counts data generation.
//!
//! The data is the fixed part of a workload: it is generated from
//! [`DATA_SEED`], not from `--seed`, which varies the traffic (request
//! streams, weights, arrivals, reloads). With data drawn from `--seed`,
//! request cost moved by up to a third between seeds (serve capacity
//! 31–45 rps), more than any bound a regression check could use.

use obx_core::labels::Labels;
use obx_core::scenario::{build_snapshot, write_scenario_dir};
use obx_datagen::scale::{scale_scenario, ScaleParams};
use obx_datagen::{
    modes_scenario, skewed_scenario, university_scenario, ModesParams, SkewedParams,
    UniversityParams,
};
use obx_srcdb::Tuple;
use std::path::Path;

/// The generators' seed for every workload's data.
pub const DATA_SEED: u64 = 42;

/// Students in the uniform university scenario (explain-uniform, and the
/// `uniform` tenant of serve-zipf). Sized so an uncapped request takes
/// about 170 ms on a 2-core host and a 30 s run holds over 150 samples.
pub const UNIFORM_STUDENTS: usize = 120;

pub fn prepare(workload: &str, out: &Path) -> Result<(), String> {
    let io = |e: std::io::Error| e.to_string();
    match workload {
        "explain-uniform" => write_uniform(&out.join("uniform")).map_err(io),
        "serve-zipf" => {
            write_uniform(&out.join("uniform")).map_err(io)?;
            let skewed = skewed_scenario(SkewedParams {
                n_students: 150,
                n_registrar_kinds: 10,
                seed: DATA_SEED,
                ..SkewedParams::default()
            });
            write_scenario_dir(&out.join("skewed"), &skewed.system, &skewed.labels).map_err(io)?;
            let audit = modes_scenario(ModesParams {
                n_pos: 20,
                n_neg: 20,
                seed: DATA_SEED,
                ..ModesParams::default()
            });
            write_scenario_dir(&out.join("audit"), &audit.system, &audit.labels).map_err(io)
        }
        "powerlaw-1m" => write_powerlaw(&out.join("powerlaw")),
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn write_uniform(dir: &Path) -> std::io::Result<()> {
    let s = university_scenario(UniversityParams {
        n_students: UNIFORM_STUDENTS,
        seed: DATA_SEED,
        ..UniversityParams::default()
    });
    write_scenario_dir(dir, &s.system, &s.labels)
}

/// The 10⁶-atom power-law scenario with a three-tuple label set: the
/// first two students enrolled once at a tail university of the target
/// city (positive), and the first enrolled once at `uni1` (negative) — the
/// largest university outside the target city, whose slice puts about
/// 7·10⁴ atoms in the student's radius-1 border. Each request takes about
/// 170 ms on a 2-core host, so a 30 s run holds over 150 samples. (The
/// rank-0 hub `uni0` is left out: its 1.4·10⁵-atom border alone costs
/// about 200 ms per request.)
fn write_powerlaw(dir: &Path) -> Result<(), String> {
    let params = ScaleParams {
        n_atoms: 1_000_000,
        label_cap: 0,
        seed: DATA_SEED,
        ..ScaleParams::default()
    };
    let s = scale_scenario(params);
    let db = s.system.db();
    let enr = db.schema().rel("ENR").map_err(|e| e.to_string())?;
    let (mut tail_pos, mut hub1_neg): (Vec<Tuple>, Option<Tuple>) = (Vec::new(), None);
    let mut i = 0;
    while tail_pos.len() < 2 || hub1_neg.is_none() {
        let student = db
            .consts()
            .get(&format!("s{i}"))
            .ok_or("ran out of students for the label roles")?;
        i += 1;
        let enrolments = db.atoms_with(enr, 0, student);
        if enrolments.len() != 1 {
            continue;
        }
        let uni: usize = db.consts().resolve(db.atom(enrolments[0]).args[2])[3..]
            .parse()
            .map_err(|_| "university constants are uniN")?;
        let t: Tuple = vec![student].into_boxed_slice();
        match uni {
            1 => hub1_neg = hub1_neg.or(Some(t)),
            u if u >= params.n_cities && u % params.n_cities == 0 && tail_pos.len() < 2 => {
                tail_pos.push(t)
            }
            _ => {}
        }
    }
    let mut labels = Labels::new();
    for t in tail_pos {
        labels.add_pos(t).map_err(|e| e.to_string())?;
    }
    labels
        .add_neg(hub1_neg.ok_or("no negative")?)
        .map_err(|e| e.to_string())?;
    write_scenario_dir(dir, &s.system, &labels).map_err(|e| e.to_string())?;
    drop(s);
    build_snapshot(dir).map_err(|e| e.to_string())?;
    Ok(())
}
