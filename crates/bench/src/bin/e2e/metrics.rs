//! The declared metrics: name, unit, direction and — end to end — the bound
//! by which a metric may worsen before it is a regression. `BENCHMARK.json`
//! repeats these tables; a unit test keeps the two in step.

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The headline metrics, the same set on every workload. Failures are not
/// in this table: they are counted against the events attempted and
/// reported beside it (`failed` / `attempted`, expected 0).
pub const END_TO_END: [EndToEnd; 6] = [
    e2e("events_per_s", "1/s", Better::Higher, 0.25),
    e2e("wave_p50_ms", "ms", Better::Lower, 0.25),
    e2e("wave_p95_ms", "ms", Better::Lower, 0.25),
    e2e("cpu_ms_per_kevent", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.20),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

/// The event kinds `core.apply_us.*` / `core.apply_share.*` are split by.
pub const KINDS: [&str; 9] = [
    "worker",
    "seed",
    "collab",
    "interest",
    "assign",
    "undertake",
    "clock",
    "answer",
    "complete",
];

/// Every per-layer metric of the traced run, layer by layer.
pub const PER_LAYER: [PerLayer; 79] = [
    lo("runtime.gate.admit_ns", "ns"),
    lo("runtime.gate.submit_block_share", "share"),
    lo("runtime.wave.submit_ms", "ms"),
    lo("runtime.wave.drain_wait_ms", "ms"),
    lo("runtime.wave_p99_ms", "ms"),
    lo("runtime.wave_max_ms", "ms"),
    lo("runtime.stage.gate_admit_ns", "ns"),
    lo("runtime.stage.mailbox_dwell_us", "us"),
    lo("runtime.stage.shard_apply_share", "share"),
    lo("runtime.stage.cylog_fixpoint_share", "share"),
    lo("runtime.stage.journal_append_share", "share"),
    lo("runtime.overhead_share", "share"),
    hi("runtime.scaling_2v1", "ratio"),
    lo("runtime.decile_ratio", "ratio"),
    lo("runtime.auto_drains", "count"),
    lo("runtime.broadcast_share", "share"),
    lo("runtime.finish_ms", "ms"),
    hi("runtime.workers.onboard_regs_per_s", "1/s"),
    lo("runtime.recovery.replay_ms", "ms"),
    lo("runtime.recovery.stall_ms", "ms"),
    lo("runtime.recovery.ledger_cost_pct", "%"),
    lo("core.apply_us.worker", "us"),
    lo("core.apply_us.seed", "us"),
    lo("core.apply_us.collab", "us"),
    lo("core.apply_us.interest", "us"),
    lo("core.apply_us.assign", "us"),
    lo("core.apply_us.undertake", "us"),
    lo("core.apply_us.clock", "us"),
    lo("core.apply_us.answer", "us"),
    lo("core.apply_us.complete", "us"),
    lo("core.apply_share.worker", "share"),
    lo("core.apply_share.seed", "share"),
    lo("core.apply_share.collab", "share"),
    lo("core.apply_share.interest", "share"),
    lo("core.apply_share.assign", "share"),
    lo("core.apply_share.undertake", "share"),
    lo("core.apply_share.clock", "share"),
    lo("core.apply_share.answer", "share"),
    lo("core.apply_share.complete", "share"),
    lo("core.drain_us", "us"),
    lo("core.drain_share", "share"),
    lo("core.sync_tasks_us", "us"),
    hi("core.serial_events_per_s", "1/s"),
    hi("core.replay_events_per_s", "1/s"),
    lo("core.state_dump_ms", "ms"),
    lo("core.eligible_set_cold_us", "us"),
    lo("core.eligible_set_warm_us", "us"),
    lo("cylog.add_fact_ns", "ns"),
    lo("cylog.run_delta_us", "us"),
    lo("cylog.run_full_ms", "ms"),
    lo("cylog.answer_batch_ns_per_answer", "ns"),
    lo("cylog.firings_per_answer", "count"),
    lo("cylog.derived_per_answer", "count"),
    lo("cylog.recomputes", "count"),
    hi("cylog.strata_skipped_share", "share"),
    lo("storage.relation.insert_ns", "ns"),
    lo("storage.relation.lookup_ns", "ns"),
    lo("storage.relation.delete_matching_ns", "ns"),
    lo("storage.relation.scale_ratio", "ratio"),
    lo("storage.journal.encode_ns", "ns"),
    lo("storage.journal.append_ns", "ns"),
    lo("storage.journal.dump_ns_per_entry", "ns"),
    lo("storage.journal.load_ns_per_entry", "ns"),
    lo("storage.journal.merge_ns_per_entry", "ns"),
    lo("storage.journal.bytes_per_event", "count"),
    lo("crowd.affinity.pair_cold_ns", "ns"),
    lo("crowd.affinity.pair_warm_ns", "ns"),
    lo("crowd.affinity.submatrix_us", "us"),
    lo("crowd.affinity.cached_entries", "count"),
    lo("assign.form_us.local_search", "us"),
    lo("assign.form_us.greedy", "us"),
    lo("assign.form_share_of_assign", "share"),
    lo("scenarios.record_s", "s"),
    lo("scenarios.merge_ms", "ms"),
    lo("telemetry.overhead_pct", "%"),
    lo("telemetry.overhead_iqr_pct", "%"),
    lo("telemetry.snapshot_us", "us"),
    lo("telemetry.render_us", "us"),
    lo("bench.trace_overhead_pct", "%"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    #[test]
    fn names_follow_the_contract_grammar_and_are_unique() {
        let mut seen = BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in names {
            assert!(seen.insert(name), "{name} declared twice");
            assert!(name.len() <= 64 && name.as_bytes()[0].is_ascii_alphanumeric());
            assert!(name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)));
            assert!(unit.len() <= 16);
            assert!(unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        for kind in KINDS {
            assert!(seen.contains(format!("core.apply_us.{kind}").as_str()));
            assert!(seen.contains(format!("core.apply_share.{kind}").as_str()));
        }
    }

    #[test]
    fn benchmark_json_declares_the_same_tables() {
        let doc = Json::parse(include_str!("../../../../../BENCHMARK.json")).expect("valid JSON");
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
        let declared: Vec<(String, String, String, Option<f64>)> = doc
            .get("end_to_end")
            .expect("end_to_end")
            .as_arr()
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Json::as_f64);
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    bound,
                )
            })
            .collect();
        let here: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                let better = m.better.as_str().to_owned();
                (m.name.to_owned(), m.unit.to_owned(), better, Some(m.bound))
            })
            .collect();
        assert_eq!(declared, here);
        let declared: Vec<(String, String, String)> = doc
            .get("per_layer")
            .expect("per_layer")
            .as_arr()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let here: Vec<_> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    m.unit.to_owned(),
                    m.better.as_str().to_owned(),
                )
            })
            .collect();
        assert_eq!(declared, here);
        let workloads: Vec<String> = doc
            .get("workloads")
            .expect("workloads")
            .as_arr()
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }
}
