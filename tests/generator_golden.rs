//! Golden `result_sig` values for the codes that draw their inputs from
//! the NPB generator (`npb_core::random`): EP's batches, FT's initial
//! conditions, MG's `zran3`, IS's keys and CG's `makea`.
//!
//! The generator computes the recurrence on integer state; the values
//! below were recorded from the double-precision split-multiply form
//! NPB publishes, so any change to the deviates (one wrong bit in one
//! draw) shows up here as a changed signature. EP's and MG's final
//! reductions depend on the team width, so they carry one value per
//! width; FT, IS and CG reproduce bitwise at every width.

use npb::{run_benchmark, Class, Style};

fn sig(name: &str, threads: usize) -> String {
    let rep = run_benchmark(name, Class::S, Style::Opt, threads).expect("known benchmark");
    assert!(rep.verified.is_success(), "{name} t{threads}: {:?}", rep.verified);
    format!("{:016x}", rep.result_sig.expect("result_sig"))
}

#[test]
fn generator_consumers_keep_their_class_s_signatures() {
    let golden = [
        ("EP", "c0aed46ec67e150c", "26e263b82a20c58f"),
        ("FT", "b830222e10844859", "b830222e10844859"),
        ("MG", "53b9c899b857c11d", "53b9c899b857c11f"),
        ("IS", "6bbde6d3f0645b95", "6bbde6d3f0645b95"),
        ("CG", "54cf2678bada079b", "54cf2678bada079b"),
    ];
    for (name, serial, t2) in golden {
        assert_eq!(sig(name, 0), serial, "{name} serial");
        assert_eq!(sig(name, 2), t2, "{name} t2");
    }
}
