//! Steady-state waves must not touch the heap.
//!
//! The engine's scratch pool and the reusable [`NodeBits`] reception masks
//! exist so that a long-running
//! continuous query performs zero allocations per round once warmed up.
//! This test pins that property with a counting global allocator: warm the
//! network up, then assert that further broadcast/convergecast rounds
//! allocate nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wsn_net::{
    Aggregate, MessageSizes, Network, NodeBits, Point, RadioModel, RoutingTree, Topology,
};

/// Wraps the system allocator and counts allocation events (allocs and
/// grows; frees are irrelevant to the steady-state claim) **per thread**:
/// the gate must see only the wave engine running on this test's thread,
/// not unrelated lazy initialization on harness threads (libtest's main
/// thread initializes its channel context whenever it first *blocks* on
/// the result receiver — which races the measured window).
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: a thread allocating during its own TLS teardown must
    // not panic inside the allocator.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.with(|c| c.get())
}

/// A Copy payload: per-subtree contribution count.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Count(u64);

impl Aggregate for Count {
    fn merge(&mut self, other: Self) {
        self.0 += other.0;
    }
    fn payload_bits(&self, sizes: &MessageSizes) -> u64 {
        sizes.counter_bits
    }
}

fn grid_network(side: usize) -> Network {
    let positions = (0..side * side)
        .map(|i| Point::new((i % side) as f64 * 8.0, (i / side) as f64 * 8.0))
        .collect();
    let topo = Topology::build(positions, 12.0);
    let tree = RoutingTree::shortest_path_tree(&topo).unwrap();
    Network::new(topo, tree, RadioModel::default(), MessageSizes::default())
}

/// One protocol-shaped round: refill the contribution slots in place, run
/// a convergecast taking from them, answer with two broadcasts, close the
/// round.
fn round(net: &mut Network, slots: &mut [Option<Count>], mask: &mut NodeBits) {
    for s in slots.iter_mut().skip(1) {
        *s = Some(Count(1));
    }
    let total = net.convergecast_with(|u| slots[u.index()].take(), |_, _| {});
    assert_eq!(total, Some(Count((net.len() - 1) as u64)));
    net.broadcast_into(64, mask);
    assert!(mask.all());
    // The allocation-free guarantee covers the internal scratch mask too.
    assert!(net.broadcast(64).all());
    net.end_round();
}

#[test]
fn steady_state_rounds_do_not_allocate() {
    let mut net = grid_network(14);
    let n = net.len();
    let mut slots: Vec<Option<Count>> = vec![None; n];
    let mut mask = NodeBits::new();

    // Warm-up: lets the scratch pool, the reception masks and the ledger
    // reach their steady-state capacities.
    for _ in 0..3 {
        round(&mut net, &mut slots, &mut mask);
    }

    let before = allocations();
    for _ in 0..5 {
        round(&mut net, &mut slots, &mut mask);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state rounds must not touch the heap"
    );
}
