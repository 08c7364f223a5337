//! Max–min fair bandwidth sharing.
//!
//! The simulator models every in-flight data movement (a client writing a
//! stripe chunk to a storage target, an MPI shuffle message between two
//! nodes) as a *flow* traversing a set of capacitated *resources* (client
//! NIC, fabric, storage target). Between engine events rates are constant,
//! so the fluid model only needs the classic progressive-filling algorithm:
//! grow every flow's rate uniformly, freeze the flows crossing each
//! bottleneck as it saturates, and repeat. The result is the unique
//! max–min fair allocation — the same first-order behaviour as the
//! fair-share queueing of an InfiniBand fabric plus file-server request
//! schedulers.
//!
//! A solve costs `O(bottlenecks × flows × path length)` over the distinct
//! resources the given flows cross — never the size of the cluster they
//! run on (see [`RateSolver`]).
//!
//! This module is pure (no engine state) so its invariants can be checked
//! by property tests: feasibility (no resource over capacity), work
//! conservation, the bottleneck characterisation of max–min fairness, and
//! bit-equality with the dense-vector solver it replaced.

/// Index of a resource in the capacity vector.
pub type ResourceId = u32;

/// A flow's static description: which resources it traverses.
///
/// Duplicate resource ids in one flow are allowed and count once (a flow
/// cannot congest itself).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowPath {
    resources: Vec<ResourceId>,
}

impl FlowPath {
    /// Build a path; deduplicates resource ids.
    #[must_use]
    pub fn new(mut resources: Vec<ResourceId>) -> FlowPath {
        resources.sort_unstable();
        resources.dedup();
        FlowPath { resources }
    }

    /// Resources traversed.
    #[must_use]
    pub fn resources(&self) -> &[ResourceId] {
        &self.resources
    }
}

/// Compute the max–min fair rate for each flow.
///
/// * `capacities[r]` — current capacity of resource `r` in bytes/s
///   (values `<= 0` are treated as a tiny positive capacity so faulted
///   resources stall flows without dividing by zero).
/// * `flows[i]` — the path of flow `i`.
///
/// Returns one rate per flow, in bytes/s. A one-shot call into
/// [`RateSolver`], which is what the engine keeps between solves.
#[must_use]
pub fn solve_rates(capacities: &[f64], flows: &[FlowPath]) -> Vec<f64> {
    // A solver used once cannot grow into its buffers; size them here.
    let mut solver = RateSolver {
        resources: Vec::with_capacity(capacities.len()),
        slot: vec![0; capacities.len()],
        paths: Vec::with_capacity(flows.iter().map(|f| f.resources().len()).sum()),
        flows: Vec::with_capacity(flows.len()),
    };
    let capacity = |r: ResourceId| capacities[r as usize];
    solver.solve(flows.iter(), capacity).collect()
}

/// Progressive filling over the resources the given flows actually cross.
///
/// The engine re-solves on every change to the flow set with a handful of
/// flows in flight on a cluster of hundreds of resources, so the solver
/// never sees the cluster: it numbers the distinct resources of the flows
/// it is handed as it meets them, asks for each one's capacity once, and
/// fills in that compact space. Flows keep their given order and every
/// rate is built from the same divisions and subtractions as over a dense
/// capacity vector, so rates are equal to that bit for bit, not merely
/// close. The buffers are kept between calls; a solve allocates only when
/// it outgrows them.
#[derive(Debug, Default)]
pub struct RateSolver {
    /// Distinct resources crossed, in the order met.
    resources: Vec<Crossed>,
    /// `slot[r]` is one more than the position of resource `r` in
    /// `resources`, or 0 while this solve has not met `r`. All zero
    /// between solves.
    slot: Vec<u32>,
    /// Every flow's resources, concatenated, as positions in `resources`.
    paths: Vec<u32>,
    flows: Vec<Filling>,
}

#[derive(Debug)]
struct Crossed {
    id: ResourceId,
    /// Unfrozen flows crossing the resource.
    load: u32,
    /// Capacity no frozen flow has claimed.
    remaining: f64,
    /// `remaining / load`: the level at which the resource saturates if
    /// its unfrozen flows grow together. Divided out when `load` or
    /// `remaining` changes, not each time a flow is tested against it.
    share: f64,
}

impl Crossed {
    fn divide(&mut self) {
        self.share = if self.load > 0 {
            self.remaining / f64::from(self.load)
        } else {
            f64::INFINITY // constrains nothing
        };
    }
}

#[derive(Debug)]
struct Filling {
    /// The flow owns `paths[previous flow's end..end]`.
    end: usize,
    frozen: bool,
    rate: f64,
}

impl RateSolver {
    /// Max–min fair rates, one per flow in the order given. `capacity`
    /// is asked once per distinct resource; a capacity `<= 1.0` (or NaN)
    /// is floored to 1 byte/s. A flow crossing nothing is unconstrained
    /// and gets `f64::INFINITY`. Runs in
    /// `O(bottlenecks × flows × path length)`, with `bottlenecks` at most
    /// the number of distinct resources crossed.
    pub fn solve<'a>(
        &mut self,
        flows: impl Iterator<Item = &'a FlowPath>,
        mut capacity: impl FnMut(ResourceId) -> f64,
    ) -> impl Iterator<Item = f64> + '_ {
        const MIN_CAPACITY: f64 = 1.0; // 1 byte/s floor for faulted resources

        for resource in self.resources.drain(..) {
            self.slot[resource.id as usize] = 0;
        }
        self.paths.clear();
        self.flows.clear();
        let mut unfrozen = 0;
        for flow in flows {
            for &id in flow.resources() {
                if self.slot.len() <= id as usize {
                    self.slot.resize(id as usize + 1, 0);
                }
                if self.slot[id as usize] == 0 {
                    let c = capacity(id);
                    self.resources.push(Crossed {
                        id,
                        load: 0,
                        remaining: if c > MIN_CAPACITY { c } else { MIN_CAPACITY },
                        share: 0.0,
                    });
                    self.slot[id as usize] = self.resources.len() as u32;
                }
                let at = self.slot[id as usize] - 1;
                self.resources[at as usize].load += 1;
                self.paths.push(at);
            }
            // Flows with no resources are unconstrained; they never freeze
            // via a bottleneck, so give them an infinite rate up front.
            let unconstrained = flow.resources().is_empty();
            unfrozen += usize::from(!unconstrained);
            self.flows.push(Filling {
                end: self.paths.len(),
                frozen: unconstrained,
                rate: if unconstrained { f64::INFINITY } else { 0.0 },
            });
        }

        self.resources.iter_mut().for_each(Crossed::divide);

        let mut level = 0.0f64; // current uniform fill level of unfrozen flows
        while unfrozen > 0 {
            // Find the next bottleneck: the resource that saturates first as
            // the uniform level grows. Constraint per resource r:
            //   level ≤ remaining[r] / load[r]  (remaining excludes frozen usage)
            let mut bottleneck_level = f64::INFINITY;
            for r in &self.resources {
                if r.share < bottleneck_level {
                    bottleneck_level = r.share;
                }
            }
            if !bottleneck_level.is_finite() {
                // No loaded resources left; remaining flows are unconstrained.
                self.freeze_rest_at(f64::INFINITY);
                break;
            }
            level = bottleneck_level.max(level);

            // Freeze every unfrozen flow that crosses a saturated resource
            // (one it crosses has `load > 0`: the flow itself).
            let saturated_at = level * (1.0 + 1e-9) + 1e-6;
            let mut froze_any = false;
            let mut start = 0;
            for flow in &mut self.flows {
                let path = &self.paths[start..flow.end];
                start = flow.end;
                if flow.frozen {
                    continue;
                }
                let saturated = path
                    .iter()
                    .any(|&at| self.resources[at as usize].share <= saturated_at);
                if saturated {
                    flow.rate = level;
                    flow.frozen = true;
                    froze_any = true;
                    unfrozen -= 1;
                    for &at in path {
                        let r = &mut self.resources[at as usize];
                        r.remaining -= level;
                        r.load -= 1;
                        r.divide();
                    }
                }
            }
            debug_assert!(
                froze_any,
                "progressive filling must freeze at least one flow"
            );
            if !froze_any {
                // Numerical safety valve: freeze everything at the current level.
                self.freeze_rest_at(level);
                break;
            }
        }
        self.flows.iter().map(|flow| flow.rate)
    }

    /// Distinct resources the last solve filled over.
    #[must_use]
    pub fn resources(&self) -> usize {
        self.resources.len()
    }

    fn freeze_rest_at(&mut self, rate: f64) {
        for flow in self.flows.iter_mut().filter(|flow| !flow.frozen) {
            flow.rate = rate;
            flow.frozen = true;
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn path(resources: &[u32]) -> FlowPath {
        FlowPath::new(resources.to_vec())
    }

    /// The solver this module shipped with until the engine stopped
    /// handing it the whole cluster: progressive filling over a dense
    /// capacity vector, `O(bottlenecks × (flows + resources))`. Kept as
    /// the reference [`RateSolver`] must equal bit for bit.
    fn dense_model(capacities: &[f64], flows: &[FlowPath]) -> Vec<f64> {
        const MIN_CAPACITY: f64 = 1.0; // 1 byte/s floor for faulted resources

        let nres = capacities.len();
        let mut remaining: Vec<f64> = capacities
            .iter()
            .map(|c| if *c > MIN_CAPACITY { *c } else { MIN_CAPACITY })
            .collect();
        // Number of unfrozen flows crossing each resource.
        let mut load = vec![0u32; nres];
        for flow in flows {
            for &r in flow.resources() {
                load[r as usize] += 1;
            }
        }

        let mut rates = vec![0.0f64; flows.len()];
        let mut frozen = vec![false; flows.len()];
        let mut level = 0.0f64; // current uniform fill level of unfrozen flows
        let mut unfrozen = flows.iter().filter(|f| !f.resources().is_empty()).count();
        // Flows with no resources are unconstrained; they never freeze via a
        // bottleneck, so give them an effectively infinite rate up front.
        for (i, flow) in flows.iter().enumerate() {
            if flow.resources().is_empty() {
                rates[i] = f64::INFINITY;
                frozen[i] = true;
            }
        }

        while unfrozen > 0 {
            // Find the next bottleneck: the resource that saturates first as
            // the uniform level grows. Constraint per resource r:
            //   level ≤ remaining[r] / load[r]  (remaining excludes frozen usage)
            let mut bottleneck_level = f64::INFINITY;
            for r in 0..nres {
                if load[r] > 0 {
                    let candidate = remaining[r] / f64::from(load[r]);
                    if candidate < bottleneck_level {
                        bottleneck_level = candidate;
                    }
                }
            }
            if !bottleneck_level.is_finite() {
                // No loaded resources left; remaining flows are unconstrained.
                for (i, f) in frozen.iter_mut().enumerate() {
                    if !*f {
                        rates[i] = f64::INFINITY;
                        *f = true;
                    }
                }
                break;
            }
            level = bottleneck_level.max(level);

            // Freeze every unfrozen flow that crosses a saturated resource.
            let mut froze_any = false;
            for (i, flow) in flows.iter().enumerate() {
                if frozen[i] {
                    continue;
                }
                let saturated = flow.resources().iter().any(|&r| {
                    let r = r as usize;
                    load[r] > 0 && remaining[r] / f64::from(load[r]) <= level * (1.0 + 1e-9) + 1e-6
                });
                if saturated {
                    rates[i] = level;
                    frozen[i] = true;
                    froze_any = true;
                    unfrozen -= 1;
                    for &r in flow.resources() {
                        let r = r as usize;
                        remaining[r] -= level;
                        load[r] -= 1;
                    }
                }
            }
            debug_assert!(
                froze_any,
                "progressive filling must freeze at least one flow"
            );
            if !froze_any {
                // Numerical safety valve: freeze everything at the current level.
                for (i, f) in frozen.iter_mut().enumerate() {
                    if !*f {
                        rates[i] = level;
                        *f = true;
                    }
                }
                break;
            }
        }
        rates
    }

    #[test]
    fn single_flow_gets_min_capacity_on_path() {
        let caps = vec![10.0, 4.0, 8.0];
        let rates = solve_rates(&caps, &[path(&[0, 1, 2])]);
        assert!((rates[0] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn equal_flows_share_equally() {
        let caps = vec![9.0];
        let rates = solve_rates(&caps, &[path(&[0]), path(&[0]), path(&[0])]);
        for r in rates {
            assert!((r - 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn classic_maxmin_example() {
        // Link 0 cap 10 shared by flows A(0) and B(0,1); link 1 cap 3.
        // B is bottlenecked at 3 by link 1; A then gets the rest: 7.
        let caps = vec![10.0, 3.0];
        let rates = solve_rates(&caps, &[path(&[0]), path(&[0, 1])]);
        assert!((rates[1] - 3.0).abs() < 1e-9, "B = {}", rates[1]);
        assert!((rates[0] - 7.0).abs() < 1e-9, "A = {}", rates[0]);
    }

    #[test]
    fn three_link_chain() {
        // Flows: A(0,1), B(1,2), C(2). caps: 10, 4, 6.
        // Uniform fill: link1 saturates at level 2 → A=B=2.
        // C continues: link2 remaining 6-2=4 → C=4.
        let caps = vec![10.0, 4.0, 6.0];
        let rates = solve_rates(&caps, &[path(&[0, 1]), path(&[1, 2]), path(&[2])]);
        assert!((rates[0] - 2.0).abs() < 1e-9);
        assert!((rates[1] - 2.0).abs() < 1e-9);
        assert!((rates[2] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn duplicate_resources_count_once() {
        let caps = vec![5.0];
        let rates = solve_rates(&caps, &[path(&[0, 0, 0])]);
        assert!((rates[0] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn empty_path_is_unconstrained() {
        let caps = vec![5.0];
        let rates = solve_rates(&caps, &[path(&[]), path(&[0])]);
        assert!(rates[0].is_infinite());
        assert!((rates[1] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn zero_capacity_is_floored_not_divided() {
        let caps = vec![0.0];
        let rates = solve_rates(&caps, &[path(&[0])]);
        assert!(rates[0] > 0.0 && rates[0] <= 1.0);
    }

    #[test]
    fn no_flows_is_fine() {
        assert!(solve_rates(&[1.0, 2.0], &[]).is_empty());
    }

    fn check_invariants(caps: &[f64], flows: &[FlowPath], rates: &[f64]) {
        // Feasibility: usage within capacity (+ tolerance).
        for (r, &cap) in caps.iter().enumerate() {
            let usage: f64 = flows
                .iter()
                .zip(rates)
                .filter(|(f, _)| f.resources().contains(&(r as u32)))
                .map(|(_, rate)| rate)
                .sum();
            let cap = cap.max(1.0);
            assert!(
                usage <= cap * (1.0 + 1e-6) + 1e-6,
                "resource {r} over capacity: {usage} > {cap}"
            );
        }
        // Max–min: every flow has a bottleneck resource that is saturated
        // and on which it has a maximal rate.
        for (i, flow) in flows.iter().enumerate() {
            if flow.resources().is_empty() {
                continue;
            }
            let has_bottleneck = flow.resources().iter().any(|&r| {
                let usage: f64 = flows
                    .iter()
                    .zip(rates)
                    .filter(|(f, _)| f.resources().contains(&r))
                    .map(|(_, rate)| rate)
                    .sum();
                let cap = caps[r as usize].max(1.0);
                let saturated = usage >= cap * (1.0 - 1e-6) - 1e-6;
                let maximal = flows
                    .iter()
                    .zip(rates)
                    .filter(|(f, _)| f.resources().contains(&r))
                    .all(|(_, rate)| *rate <= rates[i] * (1.0 + 1e-6) + 1e-6);
                saturated && maximal
            });
            assert!(has_bottleneck, "flow {i} has no bottleneck");
        }
    }

    #[test]
    fn invariants_on_dense_example() {
        let caps = vec![12.0, 7.0, 20.0, 3.0];
        let flows = vec![
            path(&[0, 1]),
            path(&[0, 2]),
            path(&[1, 3]),
            path(&[2]),
            path(&[0, 1, 2, 3]),
            path(&[3]),
        ];
        let rates = solve_rates(&caps, &flows);
        check_invariants(&caps, &flows, &rates);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]
            #[test]
            fn maxmin_invariants_hold(
                caps in proptest::collection::vec(1.0f64..1000.0, 1..8),
                flow_specs in proptest::collection::vec(
                    proptest::collection::vec(0u32..8, 1..5),
                    1..20
                ),
            ) {
                let nres = caps.len() as u32;
                let flows: Vec<FlowPath> = flow_specs
                    .into_iter()
                    .map(|spec| FlowPath::new(
                        spec.into_iter().map(|r| r % nres).collect()
                    ))
                    .collect();
                let rates = solve_rates(&caps, &flows);
                prop_assert_eq!(rates.len(), flows.len());
                check_invariants(&caps, &flows, &rates);
            }

            /// The production solver is the dense model, not an
            /// approximation of it: over capacities that are zero,
            /// negative or under the floor, resources no flow touches,
            /// empty paths and repeated ids, every rate has the same
            /// bits — and a solver that has solved before still does.
            #[test]
            fn solver_equals_dense_model_bit_for_bit(
                caps in proptest::collection::vec(
                    prop_oneof![
                        1.0f64..1e10,
                        1.0f64..1e10,
                        1.0f64..100.0,
                        -10.0f64..1.0,
                        Just(0.0f64),
                    ],
                    1..64
                ),
                flow_specs in proptest::collection::vec(
                    proptest::collection::vec(0u32..64, 0..5),
                    0..24
                ),
                warm in proptest::collection::vec(
                    proptest::collection::vec(0u32..64, 0..4),
                    0..6
                ),
            ) {
                let nres = caps.len() as u32;
                let to_flows = |specs: Vec<Vec<u32>>| -> Vec<FlowPath> {
                    specs
                        .into_iter()
                        .map(|spec| FlowPath::new(
                            spec.into_iter().map(|r| r % nres).collect()
                        ))
                        .collect()
                };
                let flows = to_flows(flow_specs);
                let bits = |rates: Vec<f64>| -> Vec<u64> {
                    rates.into_iter().map(f64::to_bits).collect()
                };
                let model = bits(dense_model(&caps, &flows));
                prop_assert_eq!(&bits(solve_rates(&caps, &flows)), &model);
                // Scratch left over from another flow set changes nothing.
                let mut solver = RateSolver::default();
                let capacity = |r: ResourceId| caps[r as usize];
                solver.solve(to_flows(warm).iter(), capacity).for_each(drop);
                let again = solver.solve(flows.iter(), capacity).collect();
                prop_assert_eq!(&bits(again), &model);
                let crossed: std::collections::BTreeSet<u32> =
                    flows.iter().flat_map(|f| f.resources().iter().copied()).collect();
                prop_assert_eq!(solver.resources(), crossed.len());
            }
        }
    }
}
