//! Session event-loop iteration counts, pinned across commits.
//!
//! `FleetResult::loop_iters` is the sum of every member's
//! `SessionCore::iters`: one per wake of the session loop. It feeds the
//! benchmark's fleet `sim_digest`, and the shard-parity oracle compares
//! it only between worker counts of one build. This test holds it to the
//! committed numbers, so a change to how the loop finds its next event
//! (the heap, the transport timers, the player's wake) that adds or drops
//! a single wake fails here even when every timeline digest still holds.

#![allow(clippy::expect_used, reason = "a test aborts on a failed run")]

use voxel::testkit::{run_golden, Content, Golden};

/// Every fleet golden's `loop_iters` at one worker.
const PINNED: [(&str, u64); 7] = [
    ("fleet-mixed8", 427_419),
    ("fleet-voxel8", 424_889),
    ("fleet-mixed64", 903_038),
    ("fleet-bbr8", 433_290),
    ("fleet-ccmix8", 536_333),
    ("fleet-edge4x16-hot", 468_676),
    ("fleet-edge4x16-cold", 463_753),
];

#[test]
fn fleet_goldens_keep_their_loop_iteration_counts() {
    let mut content = Content::new();
    let mut got = Vec::new();
    for (name, _) in PINNED {
        let g = Golden::named(name).expect("golden is in the table");
        let run = run_golden(g, &mut content, &[1]).expect("spec runs");
        assert!(run.failures.is_empty(), "{name}: {:?}", run.failures);
        let fleet = run.fleet.expect("a fleet golden has a fleet result");
        got.push((name, fleet.loop_iters));
    }
    assert_eq!(got, PINNED, "a fleet golden's loop iteration count moved");
}

/// An endpoint polled when nothing touched it since its last empty poll,
/// and before its next deadline, answers without entering the transmit
/// path (`Connection::poll_transmit`). On the scenario whose lost packets
/// leave gaps in every ACK for the whole session, that is fewer than 3.6
/// transmit-path entries per downlink packet (5.68 when every poll
/// entered it). A change that loses the shortcut, or touches an endpoint
/// on every event, fails here even though no digest moves.
#[test]
fn idle_endpoints_are_not_polled() {
    static LOSSY: Golden = Golden {
        name: "tos-voxel-tmobile-buf1",
        spec: "ToS:VOXEL:tmobile:buf1",
        seed: 1,
    };
    let profiler = voxel::obs::Profiler::with_sample(1);
    {
        let _armed = profiler.install();
        let run = run_golden(&LOSSY, &mut Content::new(), &[]).expect("spec runs");
        assert!(run.failures.is_empty(), "{:?}", run.failures);
    }
    let report = profiler.report().expect("armed profiler yields a report");
    let calls = |name: &str| {
        report
            .flat()
            .iter()
            .find(|row| row.name == name)
            .map_or(0, |row| row.calls)
    };
    let (polls, packets) = (calls("quic.poll_transmit"), calls("netem.send_downlink"));
    assert!(packets > 0, "no downlink packet was profiled");
    let per_packet = polls as f64 / packets as f64;
    assert!(
        per_packet <= 3.6,
        "{polls} transmit polls for {packets} downlink packets: {per_packet:.2} per packet"
    );
}
