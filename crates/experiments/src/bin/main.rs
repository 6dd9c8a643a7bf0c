//! Command-line entry point: regenerate any table/figure of the paper.
//!
//! ```text
//! lumen-experiments <id> [--json]
//! lumen-experiments all
//! lumen-experiments list
//! ```

use lumen_experiments::*;
use std::process::ExitCode;

const IDS: &[(&str, &str)] = &[
    (
        "fig3",
        "feasibility: nasal-bridge luminance under black/white screen",
    ),
    ("fig6", "spectra of face luminance w/ and w/o screen change"),
    ("fig7", "preprocessing chain stage by stage"),
    ("fig9", "LOF classification example with score grid"),
    (
        "fig11",
        "overall TAR (own/others' training) and TRR per user",
    ),
    ("fig12", "FAR/FRR vs decision threshold, EER"),
    ("fig13", "influence of screen size"),
    (
        "fig14",
        "influence of number of detection attempts (voting)",
    ),
    ("fig15", "influence of number of training instances"),
    ("fig16", "influence of sampling rate"),
    ("ambient", "Sec. VIII-I: influence of ambient light"),
    ("fig17", "rejection rate vs forgery-processing delay"),
    // Extensions beyond the paper's figures (ablations & sensitivity):
    (
        "baselines",
        "LOF detector vs naive timestamp / fixed correlation",
    ),
    (
        "ablation",
        "feature-subset ablation: z1,z2 vs z3,z4 vs full",
    ),
    (
        "metering",
        "callee camera metering mode: multi-zone vs spot",
    ),
    ("network", "one-way delay x packet loss sensitivity grid"),
    ("panel", "panel technology: LED vs LCD vs OLED"),
    (
        "preproc",
        "preprocessing-chain variants: median/detrend/no-threshold",
    ),
    ("related", "Lumen vs FaceLive-style vs flashing challenge"),
    (
        "probe",
        "active luminance challenge-response: FRR/FAR vs amplitude and forgery delay",
    ),
    (
        "resilience",
        "FRR/FAR and abstention under burst loss / freeze / clock skew",
    ),
    (
        "overload",
        "multi-session serving: shed fraction, latency and verdict integrity vs. load",
    ),
    (
        "chaos",
        "kill/restore recovery under storage faults, snapshot rot and poisoned clips",
    ),
    (
        "daemon",
        "lumend loopback load generation: honest clients vs a hostile cast over real sockets",
    ),
    (
        "dsoak",
        "daemon kill/restore soak: byte-identical verdict streams across >=3 mid-traffic kills",
    ),
    (
        "fleet",
        "sharded fleet: 10k-100k sessions/shards, admission, stealing, snapshot parity",
    ),
    ("roc", "ROC curves and AUC per user and pooled"),
    ("cliplen", "clip-length sensitivity (8-30 s)"),
    ("occlusion", "TAR vs occlusion/burst disturbance intensity"),
    (
        "overhead",
        "Sec. IX analogue: per-stage computation overhead breakdown",
    ),
];

fn run_one(id: &str, json: bool) -> ExpResult<String> {
    macro_rules! emit {
        ($result:expr) => {{
            let r = $result;
            if json {
                Ok(serde_json::to_string_pretty(&r)?)
            } else {
                Ok(r.print())
            }
        }};
    }
    match id {
        "fig3" => emit!(feasibility::run()?),
        "fig6" => emit!(spectrum::run()?),
        "fig7" => emit!(pipeline_stages::run()?),
        "fig9" => emit!(lof_example::run()?),
        "fig11" => emit!(overall::run(overall::OverallOpts::default())?),
        "fig12" => emit!(threshold_sweep::run(threshold_sweep::SweepOpts::default())?),
        "fig13" => emit!(screen_size::run(screen_size::ScreenOpts::default())?),
        "fig14" => emit!(voting::run(voting::VotingOpts::default())?),
        "fig15" => emit!(training_size::run(training_size::TrainingOpts::default())?),
        "fig16" => emit!(sampling_rate::run(sampling_rate::RateOpts::default())?),
        "ambient" => emit!(ambient::run(ambient::AmbientOpts::default())?),
        "fig17" => emit!(forgery_delay::run(forgery_delay::DelayOpts::default())?),
        "baselines" => emit!(baselines::run(baselines::BaselineOpts::default())?),
        "ablation" => emit!(ablation::run(ablation::AblationOpts::default())?),
        "metering" => emit!(metering::run(metering::MeteringOpts::default())?),
        "network" => emit!(network::run(network::NetworkOpts::default())?),
        "panel" => emit!(panel::run(panel::PanelOpts::default())?),
        "preproc" => emit!(preproc_ablation::run(
            preproc_ablation::PreprocOpts::default()
        )?),
        "related" => emit!(related_work::run(related_work::RelatedWorkOpts::default())?),
        "probe" => emit!(probe::run(probe::ProbeOpts::default())?),
        "resilience" => emit!(resilience::run(resilience::ResilienceOpts::default())?),
        "overload" => emit!(overload::run(overload::OverloadOpts::default())?),
        "chaos" => emit!(chaos::run(chaos::ChaosOpts::default())?),
        "daemon" => emit!(daemon::run(daemon::DaemonOpts::default())?),
        "dsoak" => emit!(dsoak::run(dsoak::DsoakOpts::default())?),
        "fleet" => emit!(fleet::run(fleet::FleetOpts::default())?),
        "roc" => emit!(roc_analysis::run(roc_analysis::RocOpts::default())?),
        "cliplen" => emit!(clip_length::run(clip_length::ClipLengthOpts::default())?),
        "occlusion" => emit!(occlusion::run(occlusion::OcclusionOpts::default())?),
        "overhead" => emit!(overhead::run(overhead::OverheadOpts::default())?),
        other => Err(format!("unknown experiment id `{other}` (try `list`)").into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let id = args.iter().find(|a| !a.starts_with("--")).cloned();
    let id = match id {
        Some(id) => id,
        None => {
            eprintln!("usage: lumen-experiments <id|all|list> [--json]");
            return ExitCode::FAILURE;
        }
    };
    if id == "list" {
        for (id, desc) in IDS {
            println!("{id:8} {desc}");
        }
        return ExitCode::SUCCESS;
    }
    let ids: Vec<&str> = if id == "all" {
        IDS.iter().map(|(i, _)| *i).collect()
    } else {
        vec![id.as_str()]
    };
    for id in ids {
        eprintln!("[lumen-experiments] running {id}...");
        match run_one(id, json) {
            Ok(output) => println!("{output}"),
            Err(e) => {
                eprintln!("experiment {id} failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
