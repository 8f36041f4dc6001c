//! Cross-check the static conflict matrix against the runtime flight
//! recorder. The abstract interpreter *predicts* which words two
//! concurrent instances of a kernel can fight over; the flight
//! recorder's attributed abort spans *observe* the fight. The sound direction is ⊆: every
//! address the recorder attributes a conflict to must lie inside the
//! concretized static prediction (the static set may over-approximate —
//! never the reverse). The run continues until the recorder has
//! something to attribute.

use semtm_ir::analysis::absint::{AbsAddr, Overlap};
use semtm_ir::analysis::{AbsInt, Cfg, ConflictAnalysis, Regions};
use semtm_ir::{programs, Interp};

use semtm_core::{Algorithm, Stm, StmConfig, TelemetryLevel};
use std::collections::HashSet;

#[test]
fn runtime_hot_addresses_stay_within_static_prediction() {
    let f = programs::bank_transfer();
    let cfg = Cfg::new(&f);
    let ai = AbsInt::compute(&f, &cfg);
    let regions = Regions::compute(&f, &cfg);
    let ca = ConflictAnalysis::compute(&f, &ai, &regions);

    // Statically, the bank region must self-conflict (two instances
    // race on the same accounts) and every access has an exact
    // arg+offset address.
    assert_eq!(ca.summaries.len(), 1);
    let c = ca.conflict(0, 0).expect("bank region self-conflicts");
    assert_eq!(c.overlap, Overlap::Must);

    let s = Stm::new(
        StmConfig::new(Algorithm::SNOrec)
            .heap_words(1 << 8)
            .orec_count(1 << 8)
            .telemetry(TelemetryLevel::Spans),
    );
    let a = s.alloc_cell(10_000i64);
    let b = s.alloc_cell(10_000i64);
    let fwd = [a.index() as i64, b.index() as i64, 1];
    let bwd = [b.index() as i64, a.index() as i64, 1];

    // Concretize the abstract access set under both argument bindings
    // the workers use: `Arg(r) + k` becomes `binding[r] + k`.
    let mut predicted: HashSet<i64> = HashSet::new();
    for bind in [&fwd, &bwd] {
        for acc in &ca.summaries[0].accesses {
            let AbsAddr::Arg(r, off) = acc.addr else {
                panic!("bank access without an arg-based address: {:?}", acc.addr);
            };
            let k = off.singleton().expect("bank offsets are exact");
            predicted.insert(bind[r as usize] + k);
        }
    }

    // Four workers hammer the same two accounts in both directions —
    // write/write and read/write collisions on exactly those words —
    // in rounds, until the runtime has seen a conflict: a quiet run
    // would make everything below vacuous.
    for round in 1.. {
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let s = &s;
                let f = &f;
                scope.spawn(move || {
                    let interp = Interp::new(s);
                    for i in 0..400usize {
                        let args = if (i + t) % 2 == 0 { fwd } else { bwd };
                        interp.execute(f, &args).unwrap();
                    }
                });
            }
        });
        if s.stats().conflict_aborts() > 0 {
            break;
        }
        assert!(
            round < 200,
            "no conflict in {round} rounds of 1600 transfers"
        );
    }

    // IR regions run under the runtime's one transaction driver, so the
    // flight recorder sees them like any hand-written transaction.
    let tele = s.telemetry();
    assert!(!tele.span_events().is_empty(), "regions leave spans");
    assert!(
        !tele.hot_addresses().is_empty(),
        "attributed abort spans name hot addresses"
    );
    assert_eq!(tele.commit_latency_ns().count(), s.stats().commits);

    for (addr, count) in tele.hot_addresses() {
        assert!(
            predicted.contains(&(addr.index() as i64)),
            "runtime conflict on word {} (count {count}) outside the \
             static prediction {predicted:?}",
            addr.index()
        );
    }
}
