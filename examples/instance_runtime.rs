//! Running a workflow management service: deploy specifications, drive
//! event-sourced instances from "external" events, recover from a crash
//! via a snapshot — the operational layer over the paper's compiled
//! schedules.
//!
//! Run with: `cargo run --example instance_runtime`

use ctr_workflows::prelude::*;

fn main() {
    let rt = Runtime::new();

    // Deploy two workflows. Compilation — including constraint folding
    // and knot excision — happens once, here; inconsistent specifications
    // never reach production.
    rt.deploy_source(
        r"
        workflow expense {
            graph submit * (manager_ok # finance_ok) * payout;
            constraint before(manager_ok, finance_ok);
        }
        ",
    )
    .unwrap();
    rt.deploy_source(
        r"
        workflow onboarding {
            graph offer * (sign + decline) * archive;
        }
        ",
    )
    .unwrap();
    println!("deployed: {:?}", rt.workflows());

    let broken = rt.deploy_source("workflow broken { graph b * a; constraint before(a, b); }");
    println!("deploying an inconsistent spec: {}\n", broken.unwrap_err());

    // Drive instances. The runtime exposes, at every stage, exactly the
    // events the compiled schedule allows — the pro-active scheduler as a
    // service.
    let exp = rt.start("expense").unwrap();
    let onb = rt.start("onboarding").unwrap();
    println!("expense #{exp} eligible: {:?}", rt.eligible(exp).unwrap());
    rt.fire(exp, "submit").unwrap();
    println!("after submit:        {:?}", rt.eligible(exp).unwrap());

    // finance_ok is structurally concurrent, but the compiled order
    // constraint gates it behind manager_ok:
    let refused = rt.fire(exp, "finance_ok").unwrap_err();
    println!("firing finance_ok:   {refused}");
    rt.fire(exp, "manager_ok").unwrap();
    rt.fire(exp, "finance_ok").unwrap();

    rt.fire(onb, "offer").unwrap();

    // --- Crash: snapshot everything, restart, resume ---------------------
    let snapshot = rt.snapshot();
    println!("\nsnapshot ({} bytes):\n{snapshot}", snapshot.len());
    drop(rt);

    let rt = Runtime::restore(&snapshot).expect("journals replay cleanly");
    println!("restored; expense journal: {:?}", rt.journal(exp).unwrap());
    assert_eq!(rt.eligible(exp).unwrap(), vec!["payout".to_owned()]);

    rt.fire(exp, "payout").unwrap();
    rt.fire(onb, "decline").unwrap();
    rt.fire(onb, "archive").unwrap();
    assert!(rt.is_complete(exp).unwrap());
    assert!(rt.is_complete(onb).unwrap());
    println!("\nboth instances completed after recovery:");
    println!("  expense:    {:?}", rt.journal(exp).unwrap());
    println!("  onboarding: {:?}", rt.journal(onb).unwrap());
}
