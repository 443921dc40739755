//! Cross-crate integration: the full proof system on CPU and simulated
//! multi-GPU backends.

use rand::{rngs::StdRng, SeedableRng};
use unintt_ff::{Bn254Fr, Field, PrimeField};
use unintt_gpu_sim::presets;
use unintt_zkp::{
    cubic_circuit, prove, random_circuit, setup, verify, Backend, Circuit, Gate, Witness,
};

#[test]
fn proofs_for_many_circuit_sizes() {
    let mut rng = StdRng::seed_from_u64(1);
    for rows in [4usize, 16, 64, 256] {
        let (circuit, witness) = random_circuit(rows, &mut rng);
        let (pk, vk) = setup(&circuit, &mut rng);
        let proof = prove(&pk, &witness, &[], &mut Backend::cpu());
        assert!(verify(&vk, &proof, &[]), "rows={rows}");
    }
}

#[test]
fn simulated_backends_agree_across_gpu_counts() {
    let mut rng = StdRng::seed_from_u64(2);
    let (circuit, witness) = random_circuit(100, &mut rng); // n = 128
    let (pk, vk) = setup(&circuit, &mut rng);
    let reference = prove(&pk, &witness, &[], &mut Backend::cpu());

    for gpus in [1usize, 2, 4, 8] {
        let mut backend =
            Backend::simulated(presets::a100_nvlink(gpus), presets::a100_nvlink(gpus));
        let proof = prove(&pk, &witness, &[], &mut backend);
        assert_eq!(proof, reference, "gpus={gpus}");
        assert!(verify(&vk, &proof, &[]));
        if gpus > 1 {
            assert!(backend.report().msm_time > unintt_gpu_sim::SimTime::ZERO);
        }
    }
}

#[test]
fn proof_does_not_verify_under_wrong_key() {
    let mut rng = StdRng::seed_from_u64(3);
    let (circuit, witness) = random_circuit(20, &mut rng);
    let (pk, _vk) = setup(&circuit, &mut rng);
    // A second setup has a different trapdoor: its key must reject.
    let (_pk2, vk2) = setup(&circuit, &mut rng);
    let proof = prove(&pk, &witness, &[], &mut Backend::cpu());
    assert!(!verify(&vk2, &proof, &[]));
}

#[test]
fn witness_for_different_circuit_rejected() {
    let mut rng = StdRng::seed_from_u64(4);
    let (circuit_a, _) = random_circuit(20, &mut rng);
    let (circuit_b, witness_b) = random_circuit(20, &mut rng);
    assert!(!circuit_a.is_satisfied(&witness_b));

    let (pk_a, vk_a) = setup(&circuit_a, &mut rng);
    // Prove circuit A with B's witness: the quotient cannot divide, so
    // either the prover panics (debug assert) or the verifier rejects.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        prove(&pk_a, &witness_b, &[], &mut Backend::cpu())
    }));
    if let Ok(proof) = result {
        assert!(!verify(&vk_a, &proof, &[]));
    }
    let _ = circuit_b;
}

#[test]
fn hand_built_range_style_circuit() {
    // b ∈ {0, 1} via b·b − b = 0, then c = a + 41·b.
    let b_is_bit = Gate {
        q_m: Bn254Fr::ONE,
        q_l: -Bn254Fr::ONE,
        ..Default::default()
    };
    let forty_one = Bn254Fr::from_u64(41);
    let linear = Gate {
        q_l: Bn254Fr::ONE,
        q_r: forty_one,
        q_o: -Bn254Fr::ONE,
        ..Default::default()
    };
    let circuit = Circuit::new(vec![b_is_bit, linear]);

    let (a, b) = (Bn254Fr::from_u64(1), Bn254Fr::ONE);
    let witness = circuit.pad_witness(Witness {
        a: vec![b, a],
        b: vec![b, b],
        c: vec![Bn254Fr::ZERO, a + forty_one * b],
    });
    assert!(circuit.is_satisfied(&witness));

    let mut rng = StdRng::seed_from_u64(5);
    let (pk, vk) = setup(&circuit, &mut rng);
    let proof = prove(&pk, &witness, &[], &mut Backend::cpu());
    assert!(verify(&vk, &proof, &[]));

    // A non-bit value of b breaks the bit gate.
    let bad = circuit.pad_witness(Witness {
        a: vec![Bn254Fr::from_u64(2), a],
        b: vec![Bn254Fr::from_u64(2), Bn254Fr::from_u64(2)],
        c: vec![Bn254Fr::ZERO, a + forty_one * Bn254Fr::from_u64(2)],
    });
    assert!(!circuit.is_satisfied(&bad));
}

#[test]
fn cubic_statement_binds_to_its_output() {
    let mut rng = StdRng::seed_from_u64(6);
    let (circuit3, witness3, y3) = cubic_circuit(Bn254Fr::from_u64(3));
    let (circuit5, _, y5) = cubic_circuit(Bn254Fr::from_u64(5));
    assert_ne!(y3, y5);
    // The gate set is identical for every x — it is the *public input* y
    // that distinguishes the statements.
    assert_eq!(circuit3, circuit5);
    let (pk, vk) = setup(&circuit3, &mut rng);
    let proof = prove(&pk, &witness3, &[y3], &mut Backend::cpu());
    assert!(verify(&vk, &proof, &[y3]));
    // The same proof must not pass for a different claimed output, nor
    // with the public input missing.
    assert!(!verify(&vk, &proof, &[y5]));
    assert!(!verify(&vk, &proof, &[]));
}
