//! End-to-end reproduction of the paper's Section V-A: both Spectre
//! variants leak the full secret on the unsafe configuration and recover
//! nothing once the DBT engine applies a countermeasure.

use dbt_attacks::{run_spectre_v1, run_spectre_v4, spectre_v1, spectre_v4};
use dbt_platform::{RunSummary, Session, TranslationService};
use dbt_riscv::Program;
use ghostbusters::MitigationPolicy;
use std::sync::Arc;

const SECRET: &[u8] = b"DATE2020";

#[test]
fn spectre_v1_full_secret_recovery_when_unsafe() {
    let outcome = run_spectre_v1(MitigationPolicy::Unprotected, SECRET).unwrap();
    assert_eq!(outcome.recovered, SECRET, "{outcome}");
    assert!(outcome.patterns_detected > 0, "the analysis should still see the pattern");
}

#[test]
fn spectre_v4_full_secret_recovery_when_unsafe() {
    let outcome = run_spectre_v4(MitigationPolicy::Unprotected, SECRET).unwrap();
    assert_eq!(outcome.recovered, SECRET, "{outcome}");
    assert!(outcome.rollbacks as usize >= SECRET.len(), "every attack round must roll back");
}

#[test]
fn every_countermeasure_stops_both_variants() {
    for policy in
        [MitigationPolicy::FineGrained, MitigationPolicy::Fence, MitigationPolicy::NoSpeculation]
    {
        let v1 = run_spectre_v1(policy, SECRET).unwrap();
        assert_eq!(v1.correct_bytes(), 0, "{v1}");
        let v4 = run_spectre_v4(policy, SECRET).unwrap();
        assert_eq!(v4.correct_bytes(), 0, "{v4}");
    }
}

#[test]
fn fine_grained_mitigation_does_not_disable_benign_speculation() {
    // The fine-grained policy must keep speculating on code without the
    // Spectre pattern: the v4 attack still exhibits MCB rollbacks (the
    // first, benign speculative load keeps bypassing the store) even though
    // nothing is leaked.
    let outcome = run_spectre_v4(MitigationPolicy::FineGrained, SECRET).unwrap();
    assert!(outcome.rollbacks > 0);
    assert_eq!(outcome.correct_bytes(), 0);
}

/// One run of an attack program under `policy` on `service`: its summary,
/// the bytes it recovered, and how many translations it had to compile.
fn attack_run(
    program: &Program,
    secret_len: usize,
    policy: MitigationPolicy,
    service: &Arc<TranslationService>,
) -> (RunSummary, Vec<u8>, u64) {
    let mut session =
        Session::builder().program(program).policy(policy).service(service).build().unwrap();
    let summary = session.run().unwrap();
    let recovered = session.load_symbol_bytes("recovered", secret_len).unwrap();
    (summary, recovered, session.engine().stats().service_misses)
}

#[test]
fn a_fresh_secret_reuses_every_translation_of_the_first() {
    let gadget = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../examples/spectre_v1_gadget.s"
    ))
    .unwrap();
    let gadget = |secret: &[u8]| {
        let secret = std::str::from_utf8(secret).unwrap();
        dbt_riscv::parse_asm(&gadget.replace("\"GhostBusters\"", &format!("\"{secret}\""))).unwrap()
    };
    // Two programs that differ only in their secret's bytes. Under
    // `unsafe` the leak steers the attacker's control flow, so another
    // secret could heat other superblocks; these two heat the same ones,
    // and so ask for the same compile inputs under every policy.
    let (old, new) = (b"GhostBusters", b"Spectre-Leak");
    let pairs = [
        ("spectre-v1", spectre_v1::build(old).unwrap(), spectre_v1::build(new).unwrap()),
        ("spectre-v4", spectre_v4::build(old).unwrap(), spectre_v4::build(new).unwrap()),
        ("spectre_v1_gadget.s", gadget(old), gadget(new)),
    ];
    for (name, first, second) in pairs {
        assert_ne!(first.fingerprint(), second.fingerprint(), "{name}: the data differs");
        let service = TranslationService::new();
        for policy in MitigationPolicy::ALL {
            let (_, _, misses) = attack_run(&first, old.len(), policy, &service);
            assert!(misses > 0, "{name} under {policy}: the first secret compiles");
        }
        for policy in MitigationPolicy::ALL {
            let (summary, recovered, misses) = attack_run(&second, new.len(), policy, &service);
            assert_eq!(misses, 0, "{name} under {policy}: the second secret compiles nothing");
            let fresh = attack_run(&second, new.len(), policy, &TranslationService::new());
            assert_eq!((summary, &recovered), (fresh.0, &fresh.1), "{name} under {policy}");
            let leaked = if policy == MitigationPolicy::Unprotected { new.len() } else { 0 };
            let correct = recovered.iter().zip(new).filter(|(got, want)| got == want).count();
            assert_eq!(correct, leaked, "{name} under {policy} recovers the second secret");
        }
    }
}
