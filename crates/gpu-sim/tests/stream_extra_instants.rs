//! A stream set may be advanced at any instant between its events without
//! moving a completion: random admissions on one to three queues, under
//! both interference models, played once stopping only at events and once
//! with extra `advance_to` instants between them, must give bit-equal
//! completion instants, `busy_union` and `stream_busy`.

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use unintt_gpu_sim::{InterferenceModel, ResourceClass, SimTime, StreamSet};

const CLASSES: [ResourceClass; 3] = [
    ResourceClass::Compute,
    ResourceClass::Memory,
    ResourceClass::Mixed,
];

/// One requested admission: at `at`, a stage of `class` with `work` of
/// solo time.
#[derive(Clone, Copy, Debug)]
struct Request {
    at: SimTime,
    class: ResourceClass,
    work: SimTime,
}

/// Seeded requests: gaps and works in nanoseconds with fractional parts,
/// rounded once, as an event loop rounds its charges.
fn requests(rng: &mut StdRng, count: usize) -> Vec<Request> {
    let mut at = 0.0f64;
    (0..count)
        .map(|_| {
            at += rng.gen::<f64>() * 3_000.0;
            Request {
                at: SimTime::from_ns(at),
                class: CLASSES[rng.gen_range(0..3) as usize],
                work: SimTime::from_ns(1.0 + rng.gen::<f64>() * 5_000.0),
            }
        })
        .collect()
}

/// Plays `requests` through one stream set: a request is admitted at its
/// instant, or as soon after as the set accepts its class (waiting
/// requests go first, in order). With `extra` set, the set is also
/// advanced to up to three seeded instants inside every gap between
/// events. Returns every `(key, completion instant)`, then the busy
/// union and the stream-occupied time.
fn play(
    queues: usize,
    model: InterferenceModel,
    requests: &[Request],
    extra: Option<u64>,
) -> (Vec<(u64, SimTime)>, SimTime, SimTime) {
    let mut extra = extra.map(StdRng::seed_from_u64);
    let mut set = StreamSet::new(queues, model);
    let mut waiting: Vec<usize> = Vec::new();
    let (mut next, mut done) = (0usize, Vec::new());
    loop {
        let now = set.now();
        while next < requests.len() && requests[next].at <= now {
            waiting.push(next);
            next += 1;
        }
        waiting.retain(|&r| {
            let Request { class, work, .. } = requests[r];
            let admit = set.can_accept(class);
            if admit {
                set.admit(r as u64, class, work);
            }
            !admit
        });
        let arrival = requests.get(next).map(|r| r.at);
        let Some(t) = [arrival, set.earliest_completion()]
            .into_iter()
            .flatten()
            .min()
        else {
            break;
        };
        if let Some(rng) = extra.as_mut() {
            let mut stops: Vec<u64> = (0..rng.gen_range(0..4))
                .map(|_| rng.gen_range(now.0..t.0 + 1))
                .collect();
            stops.sort_unstable();
            for stop in stops {
                set.advance_to(SimTime(stop));
            }
        }
        set.advance_to(t);
        done.extend(set.take_finished().into_iter().map(|f| (f.key, t)));
    }
    assert!(waiting.is_empty(), "every request was admitted");
    (done, set.busy_union, set.stream_busy)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    #[test]
    fn extra_instants_move_no_completion(
        seed in any::<u64>(),
        queues in 1usize..4,
        conservative in any::<bool>(),
        count in 1usize..200,
    ) {
        let model = if conservative {
            InterferenceModel::conservative()
        } else {
            InterferenceModel::default_model()
        };
        let requests = requests(&mut StdRng::seed_from_u64(seed), count);
        let events_only = play(queues, model, &requests, None);
        prop_assert_eq!(events_only.0.len(), count);
        let with_extra = play(queues, model, &requests, Some(seed ^ 0x5eed));
        prop_assert_eq!(events_only, with_extra);
    }
}
