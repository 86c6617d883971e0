//! RSFQ synthesis passes: fanout legalization, full path balancing, and
//! retiming.
//!
//! The flow mirrors the paper's §VI-A tooling (PBMap-style path balancing
//! [17]/[51], Leiserson–Saxe-style retiming [52], splitter insertion):
//!
//! 1. [`insert_splitters`] — every RSFQ gate drives exactly one sink, so a
//!    node with fanout `k > 1` gets a balanced tree of `k − 1` splitters.
//! 2. [`path_balance`] — every multi-input clocked gate must consume its
//!    input pulses in the same clock cycle; DRO DFFs are inserted on the
//!    shallower edges (as edge weights, see [`crate::netlist`]).
//! 3. [`retime`] — a DFF on *every* input edge of a gate can be replaced
//!    by one DFF at its output, reducing the balancing overhead without
//!    changing any input-to-output stage count.
//!
//! [`materialize_balancing`] expands edge-weight DFFs into physical DRO
//! chains, used by tests to prove the weight bookkeeping equals the
//! explicit construction.
//!
//! # Examples
//!
//! ```
//! use sfq_hw::netlist::Netlist;
//! use sfq_hw::cells::CellType;
//! use sfq_hw::passes::{insert_splitters, path_balance, retime, stage_depths};
//!
//! let mut nl = Netlist::new("unbalanced");
//! let a = nl.input("a");
//! let b = nl.input("b");
//! let deep = nl.gate(CellType::Not, &[a]);       // depth 1
//! let g = nl.gate(CellType::And2, &[deep, b]);   // pin 1 arrives early
//! nl.mark_output("g", g);
//! insert_splitters(&mut nl);
//! let inserted = path_balance(&mut nl);
//! assert_eq!(inserted, 1);                        // one DFF on the b edge
//! let _ = retime(&mut nl);
//! assert!(stage_depths(&nl).is_ok());
//! ```

use crate::cells::CellType;
use crate::counters;
use crate::netlist::{Netlist, NetlistError, NodeId};
use crate::workspace::{put_scratch, take_scratch, PassScratch};

/// Builds the CSR fanout adjacency of `nl` into the scratch buffers:
/// `csr_sinks[csr_off[i]..csr_off[i+1]]` lists node `i`'s `(sink, pin)`
/// edges in the same per-source order as [`Netlist::fanouts`].
fn build_fanout_csr(nl: &Netlist, s: &mut PassScratch) {
    let n = nl.len();
    let PassScratch {
        csr_off,
        csr_cur,
        csr_sinks,
        ..
    } = s;
    csr_off.clear();
    csr_off.resize(n + 1, 0);
    let mut total = 0u32;
    for (_, node) in nl.iter() {
        for f in &node.fanin {
            csr_off[f.index() + 1] += 1;
        }
        total += node.fanin.len() as u32;
    }
    for i in 0..n {
        csr_off[i + 1] += csr_off[i];
    }
    csr_cur.clear();
    csr_cur.extend_from_slice(&csr_off[..n]);
    csr_sinks.clear();
    csr_sinks.resize(total as usize, (NodeId(0), 0));
    for (id, node) in nl.iter() {
        for (pin, f) in node.fanin.iter().enumerate() {
            let slot = csr_cur[f.index()];
            csr_sinks[slot as usize] = (id, pin as u32);
            csr_cur[f.index()] = slot + 1;
        }
    }
}

/// Kahn topological order into `s.order`, mirroring
/// [`Netlist::topo_order`] exactly (same worklist discipline, so the same
/// order) without its per-call allocations.
fn topo_into(nl: &Netlist, s: &mut PassScratch) -> Result<(), NetlistError> {
    build_fanout_csr(nl, s);
    let n = nl.len();
    let PassScratch {
        csr_off,
        csr_sinks,
        indeg,
        queue,
        order,
        ..
    } = s;
    indeg.clear();
    for (_, node) in nl.iter() {
        indeg.push(node.fanin.len() as u32);
    }
    order.clear();
    queue.clear();
    queue.extend((0..n).filter(|&i| indeg[i] == 0));
    while let Some(i) = queue.pop() {
        order.push(NodeId(i as u32));
        for &(sink, _) in &csr_sinks[csr_off[i] as usize..csr_off[i + 1] as usize] {
            let si = sink.index();
            indeg[si] -= 1;
            if indeg[si] == 0 {
                queue.push(si);
            }
        }
    }
    if order.len() == n {
        Ok(())
    } else {
        Err(NetlistError::CombinationalCycle)
    }
}

/// Legalizes fanout: any node driving more than [`CellType::max_fanout`]
/// sinks gets a balanced binary splitter tree. Returns the number of
/// splitters added.
///
/// Splitters are asynchronous (no clock), so the pass leaves stage depths
/// untouched; it must therefore run *before* [`path_balance`].
///
/// Allocation-free on the iteration path: the fanout adjacency and the
/// endpoint queue live in the per-thread [`crate::workspace`] scratch, and
/// new splitter nodes come from the node pool.
pub fn insert_splitters(nl: &mut Netlist) -> u64 {
    let n0 = nl.len();
    counters::tally_cells(n0 as u64);
    let mut s = take_scratch();
    build_fanout_csr(nl, &mut s);
    let mut added = 0u64;
    for i in 0..n0 {
        let id = NodeId(i as u32);
        let max = nl.node(id).cell().map_or(2, CellType::max_fanout).max(1);
        // Primary inputs are driven by off-module drivers; give them the
        // same single-sink discipline (the driver needs a splitter tree
        // too — counted here so module costs are self-contained).
        let max = if nl.node(id).cell().is_none() { 1 } else { max };
        let (lo, hi) = (s.csr_off[i] as usize, s.csr_off[i + 1] as usize);
        if hi - lo <= max {
            continue;
        }
        // Build a balanced tree: repeatedly split the endpoint with the
        // fewest downstream leaves until we have enough endpoints. The
        // queue is a head cursor over the endpoints buffer (FIFO without
        // the `remove(0)` shifting).
        let needed = hi - lo;
        s.endpoints.clear();
        s.endpoints.push(id);
        let mut head = 0usize;
        while s.endpoints.len() - head < needed {
            // Take the earliest endpoint (round-robin keeps the tree
            // balanced: queue behaviour).
            let src = s.endpoints[head];
            head += 1;
            let spl = nl.gate(CellType::Splitter, &[src]);
            added += 1;
            s.endpoints.push(spl);
            s.endpoints.push(spl);
        }
        // A splitter output may feed two sinks; each endpoint id appears
        // once per available output. Rewire each original sink pin.
        for (k, &(sink, pin)) in s.csr_sinks[lo..hi].iter().enumerate() {
            nl.node_mut(sink).fanin[pin as usize] = s.endpoints[head + k];
        }
    }
    put_scratch(s);
    added
}

/// Arrival stage of every node's *output* (number of clocked cells on any
/// input-to-here path, including edge-weight DFFs).
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] for cyclic input.
pub fn stage_depths(nl: &Netlist) -> Result<Vec<u32>, NetlistError> {
    let order = nl.topo_order()?;
    let mut depth = vec![0u32; nl.len()];
    for id in order {
        let node = nl.node(id);
        let mut arrival = 0u32;
        for (pin, &src) in node.fanin.iter().enumerate() {
            let a = depth[src.index()] + node.in_dffs[pin];
            arrival = arrival.max(a);
        }
        let own = if node.is_clocked() { 1 } else { 0 };
        depth[id.index()] = arrival + own + node.out_dffs;
    }
    Ok(depth)
}

/// Fully path-balances the netlist: raises `in_dffs` on shallow edges so
/// every multi-input clocked gate sees equal arrival stages on all pins.
/// Returns the number of DFFs inserted.
///
/// Allocation-free on the iteration path: the topological order and depth
/// array live in the per-thread scratch, and per-node arrivals are folded
/// on the fly instead of collected.
///
/// # Panics
///
/// Panics if the netlist contains a combinational cycle (validate first).
pub fn path_balance(nl: &mut Netlist) -> u64 {
    counters::tally_cells(nl.len() as u64);
    let mut s = take_scratch();
    topo_into(nl, &mut s).expect("path_balance requires acyclic netlist");
    let mut inserted = 0u64;
    {
        let PassScratch { order, depth, .. } = &mut s;
        depth.clear();
        depth.resize(nl.len(), 0);
        for &id in order.iter() {
            let node = nl.node(id);
            if node.fanin.is_empty() {
                depth[id.index()] = node.out_dffs;
                continue;
            }
            let mut max_arrival = 0u32;
            for (pin, &src) in node.fanin.iter().enumerate() {
                max_arrival = max_arrival.max(depth[src.index()] + node.in_dffs[pin]);
            }
            let own = if node.is_clocked() { 1 } else { 0 };
            let out = node.out_dffs;
            if node.fanin.len() > 1 {
                let node = nl.node_mut(id);
                for pin in 0..node.fanin.len() {
                    let a = depth[node.fanin[pin].index()] + node.in_dffs[pin];
                    let lag = max_arrival - a;
                    node.in_dffs[pin] += lag;
                    inserted += lag as u64;
                }
            }
            depth[id.index()] = max_arrival + own + out;
        }
    }
    put_scratch(s);
    counters::tally_dffs_moved(inserted);
    inserted
}

/// Retiming: for every gate whose input edges *all* carry at least one
/// balancing DFF, move one DFF from each input edge to the gate output.
/// Each application on a `k`-input gate saves `k − 1` DFFs; iterates to a
/// fixpoint. Returns the total DFFs saved.
///
/// Stage counts along every input-to-output path are preserved, so a
/// balanced netlist stays balanced (see the property tests).
pub fn retime(nl: &mut Netlist) -> u64 {
    let n = nl.len();
    let mut saved = 0u64;
    loop {
        counters::tally_cells(n as u64);
        let mut changed = false;
        for i in 0..n {
            let id = NodeId(i as u32);
            let node = nl.node(id);
            if node.fanin.len() < 2 {
                continue;
            }
            let movable = node.in_dffs.iter().copied().min().unwrap_or(0);
            if movable == 0 {
                continue;
            }
            let k = node.fanin.len() as u64;
            let node = nl.node_mut(id);
            for d in node.in_dffs.iter_mut() {
                *d -= movable;
            }
            node.out_dffs += movable;
            saved += (k - 1) * movable as u64;
            counters::tally_dffs_moved(k * movable as u64);
            changed = true;
        }
        if !changed {
            return saved;
        }
    }
}

/// Expands edge-weight balancing DFFs into physical DRO DFF chains,
/// returning an equivalent netlist with zero edge weights.
///
/// Used by tests and by anyone wanting an explicit gate-level view; the
/// cost model works directly on the weights.
pub fn materialize_balancing(nl: &Netlist) -> Netlist {
    let mut out = Netlist::new(format!("{}_materialized", nl.name()));
    let mut map: Vec<Option<NodeId>> = vec![None; nl.len()];
    let order = nl.topo_order().expect("acyclic");
    for id in order {
        let node = nl.node(id);
        let new_id = match node.cell() {
            None => out.input("in"),
            Some(cell) => {
                let fanin: Vec<NodeId> = node
                    .fanin
                    .iter()
                    .zip(node.in_dffs.iter())
                    .map(|(src, &d)| {
                        let mapped = map[src.index()].expect("topo order");
                        out.chain(CellType::DroDff, mapped, d as usize)
                    })
                    .collect();
                out.gate(cell, &fanin)
            }
        };
        let with_out = out.chain(CellType::DroDff, new_id, node.out_dffs as usize);
        map[id.index()] = Some(with_out);
    }
    for (name, n) in nl.outputs() {
        out.mark_output(name.clone(), map[n.index()].unwrap());
    }
    for &(a, b) in nl.feedback_edges() {
        // Feedback destinations keep their identity through the map; the
        // source maps to the end of its out-chain.
        out.add_feedback(map[a.index()].unwrap(), map[b.index()].unwrap());
    }
    out
}

/// Runs the full synthesis flow in the paper's order — splitters,
/// balancing, retiming — and returns `(splitters, dffs_inserted,
/// dffs_saved)`.
pub fn synthesize(nl: &mut Netlist) -> (u64, u64, u64) {
    let spl = insert_splitters(nl);
    let ins = path_balance(nl);
    let sav = retime(nl);
    (spl, ins, sav)
}

/// Checks the full-path-balance invariant: every multi-input clocked gate
/// sees equal arrival stages on all pins. Returns the first violating node
/// if any.
pub fn check_balance(nl: &Netlist) -> Result<(), NodeId> {
    let mut s = take_scratch();
    if topo_into(nl, &mut s).is_err() {
        put_scratch(s);
        return Err(NodeId(0));
    }
    let mut result = Ok(());
    {
        let PassScratch { order, depth, .. } = &mut s;
        depth.clear();
        depth.resize(nl.len(), 0);
        'walk: for &id in order.iter() {
            let node = nl.node(id);
            let mut max_arrival = 0u32;
            let mut first = 0u32;
            let mut equal = true;
            for (pin, &src) in node.fanin.iter().enumerate() {
                let a = depth[src.index()] + node.in_dffs[pin];
                if pin == 0 {
                    first = a;
                } else if a != first {
                    equal = false;
                }
                max_arrival = max_arrival.max(a);
            }
            if node.fanin.len() > 1 && !equal {
                result = Err(id);
                break 'walk;
            }
            let own = if node.is_clocked() { 1 } else { 0 };
            depth[id.index()] = max_arrival + own + node.out_dffs;
        }
    }
    put_scratch(s);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Netlist;

    /// A 4-input AND tree with deliberately skewed depths.
    fn skewed_tree() -> Netlist {
        let mut nl = Netlist::new("skew");
        let ins = nl.inputs("i", 4);
        let a = nl.gate(CellType::And2, &[ins[0], ins[1]]); // depth 1
        let b = nl.gate(CellType::And2, &[a, ins[2]]); // skew on pin 1
        let c = nl.gate(CellType::And2, &[b, ins[3]]); // more skew
        nl.mark_output("o", c);
        nl
    }

    #[test]
    fn splitter_insertion_legalizes_fanout() {
        let mut nl = Netlist::new("fan");
        let a = nl.input("a");
        let sinks: Vec<_> = (0..5).map(|_| nl.gate(CellType::Not, &[a])).collect();
        for (i, s) in sinks.iter().enumerate() {
            nl.mark_output(format!("o{i}"), *s);
        }
        let added = insert_splitters(&mut nl);
        assert_eq!(added, 4, "k sinks need k−1 splitters");
        // All fanouts now legal.
        let fo = nl.fanout_counts();
        for (id, node) in nl.iter() {
            let max = node.cell().map_or(1, CellType::max_fanout);
            assert!(
                (fo[id.index()] as usize) <= max,
                "node {id:?} fanout {} > {max}",
                fo[id.index()]
            );
        }
        assert!(nl.validate().is_ok());
    }

    #[test]
    fn splitter_tree_is_balanced() {
        let mut nl = Netlist::new("fan8");
        let a = nl.input("a");
        for _ in 0..8 {
            let g = nl.gate(CellType::Not, &[a]);
            nl.mark_output("o", g);
        }
        insert_splitters(&mut nl);
        // Depth of splitter chains to each sink ≤ ceil(log2(8)) = 3.
        for (_, node) in nl.iter() {
            if node.cell() == Some(CellType::Not) {
                let mut hops = 0;
                let mut cur = node.fanin[0];
                while nl.node(cur).cell() == Some(CellType::Splitter) {
                    hops += 1;
                    cur = nl.node(cur).fanin[0];
                }
                assert!(hops <= 3, "splitter chain too deep: {hops}");
            }
        }
    }

    #[test]
    fn path_balance_inserts_expected_dffs() {
        let mut nl = skewed_tree();
        let inserted = path_balance(&mut nl);
        // b needs 1 on pin 1 (arrival 0 vs 1); c needs 2 on pin 1.
        assert_eq!(inserted, 3);
        assert!(check_balance(&nl).is_ok());
    }

    #[test]
    fn path_balance_idempotent() {
        let mut nl = skewed_tree();
        let first = path_balance(&mut nl);
        let second = path_balance(&mut nl);
        assert!(first > 0);
        assert_eq!(second, 0, "second run must be a no-op");
    }

    #[test]
    fn retime_reduces_dffs_preserving_balance() {
        // Two parallel NOT chains into an AND: balancing puts DFFs on the
        // shorter side; deliberately put DFFs on both sides to let retime
        // merge them.
        let mut nl = Netlist::new("rt");
        let a = nl.input("a");
        let b = nl.input("b");
        let na = nl.gate(CellType::Not, &[a]);
        let nb = nl.gate(CellType::Not, &[b]);
        let g = nl.gate(CellType::And2, &[na, nb]);
        nl.mark_output("g", g);
        // Manually weight both edges (as if a deeper context required it).
        nl.node_mut(g).in_dffs = vec![2, 2];
        let before = nl.stats().balancing_dffs;
        let saved = retime(&mut nl);
        let after = nl.stats().balancing_dffs;
        assert_eq!(saved, 2);
        assert_eq!(before - after, 2);
        assert_eq!(nl.node(g).out_dffs, 2);
        assert!(check_balance(&nl).is_ok());
    }

    #[test]
    fn retime_noop_when_one_edge_dry() {
        let mut nl = Netlist::new("rt2");
        let a = nl.input("a");
        let b = nl.input("b");
        let g = nl.gate(CellType::And2, &[a, b]);
        nl.mark_output("g", g);
        nl.node_mut(g).in_dffs = vec![3, 0];
        assert_eq!(retime(&mut nl), 0);
        assert_eq!(nl.node(g).in_dffs, vec![3, 0]);
    }

    #[test]
    fn synthesize_runs_full_flow() {
        let mut nl = skewed_tree();
        // Give input 0 a second sink to exercise splitters.
        let extra = nl.gate(CellType::Not, &[crate::netlist::NodeId(0)]);
        nl.mark_output("x", extra);
        let (spl, ins, _sav) = synthesize(&mut nl);
        assert!(spl >= 1);
        assert!(ins >= 3);
        assert!(check_balance(&nl).is_ok());
        assert!(nl.validate().is_ok());
    }

    #[test]
    fn materialize_matches_weights() {
        let mut nl = skewed_tree();
        path_balance(&mut nl);
        retime(&mut nl);
        let weights = nl.stats();
        let phys = materialize_balancing(&nl);
        let pstats = phys.stats();
        assert_eq!(
            pstats.count(CellType::DroDff),
            weights.count(CellType::DroDff)
        );
        assert_eq!(pstats.total_jj, weights.total_jj);
        assert!(phys.validate().is_ok());
        // Physical netlist has zero residual edge weights.
        assert_eq!(pstats.balancing_dffs, 0);
        // And is itself balanced.
        assert!(check_balance(&phys).is_ok());
    }

    #[test]
    fn stage_depths_computed() {
        let mut nl = skewed_tree();
        path_balance(&mut nl);
        let d = stage_depths(&nl).unwrap();
        // Output gate sits at depth 3 (three AND stages).
        let out = nl.outputs()[0].1;
        assert_eq!(d[out.index()], 3);
    }

    #[test]
    fn check_balance_detects_violation() {
        let nl = skewed_tree();
        assert!(check_balance(&nl).is_err());
    }
}
