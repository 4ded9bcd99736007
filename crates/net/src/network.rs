//! Convergecast / broadcast engines with in-network aggregation.
//!
//! All quantile protocols in the paper are built from exactly two
//! communication patterns over the routing tree:
//!
//! * **Convergecast** (leaf → root): every node may contribute a local
//!   payload; intermediate nodes *merge* the payloads of their children
//!   with their own (TAG-style aggregation) and forward a single message to
//!   their parent — possibly pruning the merged payload first (e.g. IQ
//!   refinement responses keep only the `f` largest values, §4.2.2).
//!   A node stays silent iff neither it nor any descendant has anything to
//!   say.
//! * **Broadcast** (root → leaves): a payload flooded down the tree; every
//!   internal node transmits once and every node receives once.
//!
//! The engine charges transmit/receive energy per the [`RadioModel`] and
//! fragments payloads per [`MessageSizes`]. Protocol logic never touches the
//! ledger directly: every charge goes through one `Books::charge` call,
//! which feeds the ledger, the traffic stats, the per-phase and per-lane
//! breakdowns and the audit log together.
//!
//! With a [`LossModel`] installed, every 802.15.4 fragment is lost
//! independently; the optional reliability layer (see
//! [`crate::reliability`]) adds per-link ARQ, end-to-end wave recovery, and
//! crash-stop node failures with routing-tree repair — all charged to the
//! same ledger, so reliability has a measurable energy price.

use std::any::{Any, TypeId};

use crate::audit::{AuditLog, LaneBook, Phase, PhaseBreakdown, TxEvent, TxKind};
use crate::bitset::NodeBits;
use crate::energy::{EnergyLedger, RadioModel};
use crate::geometry::Point;
use crate::loss::LossModel;
use crate::message::MessageSizes;
use crate::reliability::{FailureModel, ReliabilityConfig, ReliabilityStats, WaveReport};
use crate::topology::{NodeId, Topology};
use crate::tree::RoutingTree;
use wsn_obs::{HistKind, NodeHistograms, PacketRecord, Recorder, SpanStart};

/// A mergeable convergecast payload.
///
/// Implementations describe both the algebra (how payloads combine) and the
/// wire format (how many bits the payload occupies).
pub trait Aggregate {
    /// Merges `other` into `self` (TAG-style in-network aggregation).
    fn merge(&mut self, other: Self);

    /// Size of this payload on the wire, in bits, excluding headers.
    fn payload_bits(&self, sizes: &MessageSizes) -> u64;

    /// Number of raw measurements contained in the payload, for the
    /// "transmitted values" statistic of §5.1. Defaults to zero for
    /// counter-only payloads.
    fn value_count(&self) -> usize {
        0
    }
}

/// Per-round traffic statistics (§5.1 performance indicators).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Messages transmitted (fragments count individually).
    pub messages: u64,
    /// Raw measurements transmitted hop-by-hop (each hop counts).
    pub values: u64,
    /// Total bits on air.
    pub bits: u64,
    /// Convergecast waves executed.
    pub convergecasts: u64,
    /// Broadcast waves executed.
    pub broadcasts: u64,
}

impl TrafficStats {
    /// Component-wise sum.
    pub fn add(&mut self, other: &TrafficStats) {
        self.messages += other.messages;
        self.values += other.values;
        self.bits += other.bits;
        self.convergecasts += other.convergecasts;
        self.broadcasts += other.broadcasts;
    }
}

/// Reusable convergecast inboxes, so the wave hot path performs no heap
/// allocation in steady state. Inboxes are generic over the payload type,
/// so they are stored type-erased, one recycled buffer per payload type:
/// the first wave of each type allocates, every later wave reuses it.
///
/// Scratch holds no observable state — clearing (or cloning to empty) never
/// changes simulation results, only allocation behaviour.
#[derive(Default)]
struct ScratchPool {
    /// One recycled `Vec<Option<T>>` per payload type.
    bufs: Vec<(TypeId, Box<dyn Any + Send>)>,
}

impl ScratchPool {
    /// Takes the recycled buffer for payload type `T` (empty on first use),
    /// cleared and resized to `n` empty slots.
    fn take_buf<T: Send + 'static>(&mut self, n: usize) -> Vec<Option<T>> {
        let key = TypeId::of::<Vec<Option<T>>>();
        let mut buf = self
            .bufs
            .iter_mut()
            .find(|(k, _)| *k == key)
            .and_then(|(_, b)| b.downcast_mut::<Vec<Option<T>>>())
            .map(std::mem::take)
            .unwrap_or_default();
        buf.clear();
        buf.resize_with(n, || None);
        buf
    }

    /// Returns a buffer to the pool for later reuse.
    fn put_buf<T: Send + 'static>(&mut self, mut buf: Vec<Option<T>>) {
        buf.clear();
        let key = TypeId::of::<Vec<Option<T>>>();
        match self.bufs.iter_mut().find(|(k, _)| *k == key) {
            Some((_, b)) => {
                if let Some(slot) = b.downcast_mut::<Vec<Option<T>>>() {
                    *slot = buf;
                }
            }
            None => self.bufs.push((key, Box::new(buf))),
        }
    }
}

impl std::fmt::Debug for ScratchPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScratchPool")
            .field("bufs", &self.bufs.len())
            .finish()
    }
}

impl Clone for ScratchPool {
    /// Scratch is not meaningful state; clones start empty.
    fn clone(&self) -> Self {
        ScratchPool::default()
    }
}

/// Every book a charge lands in, plus the sticky phase and lane that
/// attribute it. [`Books::charge`] is the single accounting path: each
/// data frame, ACK, broadcast transmission and reception, beacon and idle
/// listen is one call, in the engine's fixed wave order, so every book
/// accumulates its `f64` sums in the same order the auditor replays.
#[derive(Debug, Clone)]
struct Books {
    ledger: EnergyLedger,
    stats: TrafficStats,
    phases: PhaseBreakdown,
    /// Per-lane attribution mirroring `phases`, so multi-query service
    /// runs get bit-exact per-query accounting.
    lanes: LaneBook,
    audit: AuditLog,
    /// The protocol phase charged (see [`Network::set_phase`]).
    phase: Phase,
    /// The service lane charged (see [`Network::set_lane`]); `0` outside
    /// multi-query service runs.
    lane: u32,
}

impl Books {
    fn new(n: usize) -> Self {
        Books {
            ledger: EnergyLedger::new(n),
            stats: TrafficStats::default(),
            phases: PhaseBreakdown::default(),
            lanes: LaneBook::default(),
            audit: AuditLog::default(),
            phase: Phase::default(),
            lane: 0,
        }
    }

    /// Charges one transmission event: `tx` to `src` and `rx` to `dst` in
    /// the ledger (per [`TxKind`]: broadcast receptions and idle listens
    /// have no transmitter, a broadcast transmission no receiver), the
    /// kind's [`TxKind::tally`] to the stats and the current phase and
    /// lane, and the event itself to the audit log.
    #[inline]
    // The arguments are exactly the fields a `TxEvent` carries beyond the
    // sticky round, lane and phase.
    #[allow(clippy::too_many_arguments)]
    fn charge(
        &mut self,
        kind: TxKind,
        src: NodeId,
        dst: NodeId,
        fragments: u64,
        bits: u64,
        tx: f64,
        rx: f64,
    ) {
        match kind {
            TxKind::Data | TxKind::Ack => {
                self.ledger.charge_tx(src, tx);
                self.ledger.charge(dst, rx);
            }
            TxKind::BroadcastTx => self.ledger.charge_tx(src, tx),
            TxKind::BroadcastRx | TxKind::Idle => self.ledger.charge(dst, rx),
        }
        let (messages, counted_bits, joules) = kind.tally(fragments, bits, tx, rx);
        self.stats.messages += messages;
        self.stats.bits += counted_bits;
        self.phases
            .charge(self.phase, messages, counted_bits, joules);
        self.lanes
            .charge(self.lane, self.phase, messages, counted_bits, joules);
        self.audit.record(TxEvent {
            round: self.audit.round(),
            lane: self.lane,
            phase: self.phase,
            kind,
            src,
            dst,
            fragments,
            bits,
            joules_tx: tx,
            joules_rx: rx,
        });
    }

    /// Closes a round in the ledger and (when enabled) snapshots it into
    /// the audit log.
    fn end_round(&mut self) {
        self.ledger.end_round();
        self.audit.end_round(
            self.ledger.consumed_per_node(),
            self.ledger.consumed_tx_per_node(),
        );
    }
}

/// The simulated network: topology + routing tree + energy accounting.
#[derive(Debug, Clone)]
pub struct Network {
    topo: Topology,
    tree: RoutingTree,
    model: RadioModel,
    sizes: MessageSizes,
    books: Books,
    loss: Option<LossModel>,
    reliability: ReliabilityConfig,
    rel_stats: ReliabilityStats,
    wave: WaveReport,
    failures: Option<FailureModel>,
    alive: Vec<bool>,
    /// Duty-cycle listen fraction in per-mille (see
    /// [`Network::set_duty_cycle`]); `0` = always-off idle radio, the
    /// pre-dynamics behavior.
    duty_milli: u32,
    /// Per-round shared-frame state for multi-query rounds (see
    /// [`Network::set_shared_frames`]). Off by default.
    share: SharedWave,
    /// When true, [`Network::end_round`] is deferred: protocol-internal
    /// round boundaries become no-ops and the service runner closes the
    /// real round with [`Network::finish_round`] once every due query has
    /// executed — so shared frames span the whole multi-query round.
    round_hold: bool,
    scratch: ScratchPool,
    /// Per-node telemetry histograms in wave-slot order (always on; see
    /// [`SlotHists`]).
    hists: SlotHists,
    /// Node id → histogram storage slot (see [`SlotHists`]). Tree nodes
    /// map to their `bottom_up` position; nodes outside the routing tree
    /// (dead or orphaned) are packed after them in ascending id order.
    /// Rebuilt, with a matching storage permutation, whenever the tree is
    /// repaired or rebuilt.
    hist_slot: Vec<u32>,
    /// Wall-clock span recorder (off by default; see
    /// [`Network::set_telemetry`]).
    recorder: Recorder,
    /// Open span for the current round (null while telemetry is off).
    round_start: SpanStart,
    /// Open span for the current phase (null while telemetry is off).
    phase_start: SpanStart,
    /// Per-wave scratch: delivered-child-payload counts for the fan-in
    /// histogram (cleared each convergecast; no steady-state allocation).
    fanin: Vec<u32>,
    /// Reusable reception mask for [`Network::broadcast`]; steady-state
    /// broadcasts perform no heap allocation.
    bcast_recv: NodeBits,
}

/// The node-id → histogram-slot map for `tree`, in id order (see
/// [`Network::histograms`]): tree nodes take their `bottom_up` position,
/// everyone else is packed afterwards in ascending id order.
fn hist_slots(tree: &RoutingTree) -> impl Iterator<Item = u32> + '_ {
    let mut next = tree.tree_size() as u32;
    (0..tree.len() as u32).map(move |id| match tree.wave_slot(NodeId(id)) {
        Some(s) => s as u32,
        None => {
            next += 1;
            next - 1
        }
    })
}

/// One run-length cell of the histogram hot cache: `repeat` pending samples
/// of `value`, not yet applied to the 1.1 kB per-node [`NodeHistograms`]
/// block. `repeat == 0` means empty.
///
/// Wave traffic records the *same* value per (node, kind) almost every wave
/// — hop depth and fan-in are topology constants, fragment sizes repeat per
/// payload type, retries are 0 on a perfect channel — so coalescing runs
/// here shrinks the engines' per-wave histogram traffic from the full
/// per-node block to one 16-byte cell (the node's four cells share a cache
/// line). Deferral is exact: histogram counters are plain integers, so
/// applying a run later via [`NodeHistograms::record_n`] yields bit-identical
/// state to recording each sample eagerly.
#[derive(Debug, Clone, Copy, Default)]
struct HistDelta {
    value: u64,
    repeat: u64,
}

/// Per-node telemetry histograms (message bits, hop depth, ARQ retries,
/// fan-in), stored in *wave-slot* order — slot `s` belongs to the node at
/// `tree.bottom_up()[s]` — so the wave engines touch the 1.1 kB histogram
/// blocks in exactly their iteration order, fronted by a run-length
/// [`HistDelta`] hot cache. [`Network::histograms`] assembles the
/// id-ordered view.
#[derive(Debug, Clone)]
struct SlotHists {
    store: NodeHistograms,
    /// One cell per `(wave slot, HistKind)`, slot-major: the four kinds of
    /// slot `s` live at `s * HistKind::COUNT ..`.
    hot: Vec<HistDelta>,
    /// Reused slot permutation for [`NodeHistograms::reindex`] on a tree
    /// change (new slot → old slot).
    perm: Vec<u32>,
}

impl SlotHists {
    fn new(n: usize) -> Self {
        SlotHists {
            store: NodeHistograms::new(n),
            hot: vec![HistDelta::default(); n * HistKind::COUNT],
            perm: vec![0; n],
        }
    }

    /// Records one sample through the hot cache: extends the cell's run
    /// when the value repeats, otherwise flushes the old run into the
    /// store and starts a new one.
    #[inline(always)]
    fn record(&mut self, slot: usize, kind: HistKind, value: u64) {
        let cell = &mut self.hot[slot * HistKind::COUNT + kind.index()];
        if cell.repeat != 0 && cell.value == value {
            cell.repeat += 1;
        } else {
            if cell.repeat != 0 {
                self.store.record_n(slot, kind, cell.value, cell.repeat);
            }
            *cell = HistDelta { value, repeat: 1 };
        }
    }

    /// Records the message-size samples of one transmission: one per
    /// 802.15.4 fragment of a solo `payload_bits` payload or, given the
    /// `(fragments, bits)` a shared-frame send newly put on air, one per
    /// new frame at the per-frame average (so the sample count still
    /// equals the message count).
    fn record_frames(
        &mut self,
        slot: usize,
        sizes: &MessageSizes,
        payload_bits: u64,
        shared: Option<(u64, u64)>,
    ) {
        match shared {
            Some((fragments, bits)) => {
                for _ in 0..fragments {
                    self.record(slot, HistKind::MsgBits, bits / fragments.max(1));
                }
            }
            None => {
                for frag_bits in sizes.fragment_bits(payload_bits) {
                    self.record(slot, HistKind::MsgBits, frag_bits);
                }
            }
        }
    }

    /// Applies every pending run of `hot` to `into` (exact; see
    /// [`HistDelta`]).
    fn fold_pending(hot: &[HistDelta], into: &mut NodeHistograms) {
        for (i, cell) in hot.iter().enumerate() {
            if cell.repeat != 0 {
                into.record_n(
                    i / HistKind::COUNT,
                    HistKind::ALL[i % HistKind::COUNT],
                    cell.value,
                    cell.repeat,
                );
            }
        }
    }
}

/// Shared-frame state for multi-query service rounds: when enabled, the
/// concurrent waves of one round pack their payloads into shared 802.15.4
/// frames per link, so a link that already sent `b` payload bits this round
/// charges a later `p`-bit payload only its *marginal* frames. The
/// invariant (pinned in tests): after sends `p₁..pₖ` over one link in one
/// round, the cumulative bits on air equal
/// `MessageSizes::fragment(p₁ + … + pₖ)` — exactly what one concatenated
/// payload would cost. The first send of a round reproduces the solo
/// `fragment` cost bit for bit, so enabling sharing never *increases* any
/// link's traffic and single-query rounds are unchanged.
///
/// Sharing applies only on lossless wave paths (untelemetered convergecast
/// sends and lossless broadcasts); lossy/ARQ traffic keeps solo per-payload
/// framing, which only over-approximates — the inequality "shared ≤ solo"
/// still holds.
#[derive(Debug, Clone, Default)]
struct SharedWave {
    enabled: bool,
    /// Payload bits already framed this round per transmitter, upward
    /// (convergecast sends to the parent; one parent per node).
    up: Vec<u64>,
    /// Same, downward (one broadcast transmission reaches all children).
    down: Vec<u64>,
}

impl SharedWave {
    /// Frames a `payload_bits` send over a link that already carried
    /// `*accum` payload bits this round, advancing the accumulator.
    /// Returns `(new_fragments, bits_on_air)` — the marginal cost.
    #[inline]
    fn frame(accum: &mut u64, payload_bits: u64, sizes: &MessageSizes) -> (u64, u64) {
        let before = *accum;
        *accum = before + payload_bits;
        if before == 0 {
            // First payload on this link this round: exactly the solo cost.
            return sizes.fragment(payload_bits);
        }
        if payload_bits == 0 {
            // Free piggyback on frames already on air.
            return (0, 0);
        }
        let mp = sizes.max_payload_bits.max(1);
        let frames = |p: u64| p.div_ceil(mp).max(1);
        let new = frames(before + payload_bits) - frames(before);
        (new, payload_bits + new * sizes.header_bits)
    }

    /// Clears the per-round accumulators (keeps capacity).
    fn reset(&mut self) {
        self.up.iter_mut().for_each(|b| *b = 0);
        self.down.iter_mut().for_each(|b| *b = 0);
    }
}

/// Everything a link send touches, borrowed field by field from the
/// [`Network`] (see [`Network::wire`]) so the wave engines can walk the
/// routing tree in place while they charge.
struct Wire<'a> {
    sizes: &'a MessageSizes,
    /// Per-bit transmit cost at the radio range: `tx_energy(b, range)` is
    /// exactly `b as f64 * tx_coef` (see [`RadioModel::tx_coef`]), so the
    /// `powf` is paid once per wave.
    tx_coef: f64,
    /// Per-bit receive cost (`rx_energy(b) == b as f64 * rx_coef`).
    rx_coef: f64,
    reliability: ReliabilityConfig,
    loss: &'a mut Option<LossModel>,
    books: &'a mut Books,
    rel: &'a mut ReliabilityStats,
    hists: &'a mut SlotHists,
    share: &'a mut SharedWave,
    rec: &'a mut Recorder,
}

impl Wire<'_> {
    /// Sends one logical payload over the single link `from → to`
    /// (`from_slot` is the sender's histogram slot) and returns whether the
    /// *entire* payload (every fragment) arrived.
    ///
    /// Without a loss model the link is perfect: the payload is charged in
    /// one piece and always arrives (ARQ never acts — there is nothing to
    /// retransmit, and link-layer ACKs are not modelled on reliable links).
    /// With `shared` it is framed into the link's shared frames for the
    /// round (see [`SharedWave`]). With a loss model every 802.15.4
    /// fragment is lost independently (a ten-fragment histogram really is
    /// more fragile than a one-value payload) and, with ARQ retries
    /// configured, each data frame is acknowledged and retransmitted up to
    /// the budget. Retries and ACKs are charged like any other traffic;
    /// ACK frames count towards bits on air but not towards the message
    /// count (§5.1 counts data messages).
    fn send(
        &mut self,
        from: NodeId,
        from_slot: usize,
        to: NodeId,
        payload_bits: u64,
        values: usize,
        shared: bool,
    ) -> bool {
        let sizes = self.sizes;
        let (tx_coef, rx_coef) = (self.tx_coef, self.rx_coef);
        let span = self.rec.start();
        let round = self.books.audit.round();
        self.books.stats.values += values as u64;
        let Some(loss) = self.loss.as_mut() else {
            let (fragments, total_bits) = if shared {
                SharedWave::frame(&mut self.share.up[from.index()], payload_bits, sizes)
            } else {
                sizes.fragment(payload_bits)
            };
            // The receiver listens according to its schedule, so it pays
            // for the reception even if the message is corrupted.
            let (tx, rx) = (total_bits as f64 * tx_coef, total_bits as f64 * rx_coef);
            self.books
                .charge(TxKind::Data, from, to, fragments, total_bits, tx, rx);
            let frames = shared.then_some((fragments, total_bits));
            self.hists
                .record_frames(from_slot, sizes, payload_bits, frames);
            self.hists.record(from_slot, HistKind::Retries, 0);
            self.rel.delivered += 1;
            self.rec
                .end(self.books.phase.name(), from.0 + 1, round, span);
            return true;
        };
        let arq_retries = self.reliability.max_retries;
        let mut all_arrived = true;
        let mut link_retries = 0u64;
        for frag_bits in sizes.fragment_bits(payload_bits) {
            let mut frag_arrived = false;
            let mut attempt = 0u32;
            loop {
                let (tx, rx) = (frag_bits as f64 * tx_coef, frag_bits as f64 * rx_coef);
                self.books
                    .charge(TxKind::Data, from, to, 1, frag_bits, tx, rx);
                self.hists.record(from_slot, HistKind::MsgBits, frag_bits);
                if attempt > 0 {
                    self.rel.retransmissions += 1;
                    link_retries += 1;
                    self.rec.instant("arq_retry", from.0 + 1, round);
                }
                let arrived = !loss.lose();
                frag_arrived |= arrived;
                if arq_retries == 0 {
                    // Fire-and-forget: the plain lossy path, no ACKs on air.
                    break;
                }
                if arrived {
                    // Immediate ACK `to → from`. A lost ACK burns a retry on
                    // a harmless duplicate — the data is already through.
                    let ack = sizes.ack_bits;
                    let (tx, rx) = (ack as f64 * tx_coef, ack as f64 * rx_coef);
                    self.books.charge(TxKind::Ack, to, from, 1, ack, tx, rx);
                    self.rel.acks += 1;
                    if !loss.lose() {
                        break;
                    }
                }
                if attempt >= arq_retries {
                    break;
                }
                attempt += 1;
            }
            all_arrived &= frag_arrived;
        }
        self.hists
            .record(from_slot, HistKind::Retries, link_retries);
        if all_arrived {
            self.rel.delivered += 1;
        } else {
            self.rel.dropped += 1;
        }
        self.rec
            .end(self.books.phase.name(), from.0 + 1, round, span);
        all_arrived
    }
}

impl Network {
    /// Assembles a network from its parts.
    pub fn new(topo: Topology, tree: RoutingTree, model: RadioModel, sizes: MessageSizes) -> Self {
        let n = topo.len();
        assert_eq!(n, tree.len(), "tree and topology disagree on node count");
        if let Err(e) = sizes.validate() {
            panic!("invalid MessageSizes: {e}");
        }
        let hist_slot = hist_slots(&tree).collect();
        let mut net = Network {
            topo,
            tree,
            model,
            sizes,
            books: Books::new(n),
            loss: None,
            reliability: ReliabilityConfig::default(),
            rel_stats: ReliabilityStats::default(),
            wave: WaveReport::default(),
            failures: None,
            alive: vec![true; n],
            duty_milli: 0,
            share: SharedWave::default(),
            round_hold: false,
            scratch: ScratchPool::default(),
            hists: SlotHists::new(n),
            hist_slot,
            recorder: Recorder::default(),
            round_start: SpanStart::default(),
            phase_start: SpanStart::default(),
            fanin: Vec::new(),
            bcast_recv: NodeBits::new(),
        };
        // Pre-size lane 0 so default (single-lane) runs never allocate on
        // the warm path.
        net.set_lane(0);
        net
    }

    /// Accepted and ignored: waves always run on the caller's thread. Kept
    /// only because the frozen benchmark in `perfbench/src/world.rs` still
    /// calls it; nothing in the workspace may.
    #[doc(hidden)]
    pub fn set_wave_workers(&mut self, _workers: usize) {}

    /// Splits the network into the routing tree (read) and the [`Wire`]
    /// every send charges through (written), so a wave can walk the tree
    /// in place.
    fn wire(&mut self) -> (&RoutingTree, Wire<'_>) {
        let Network {
            tree,
            topo,
            model,
            sizes,
            reliability,
            loss,
            books,
            rel_stats,
            hists,
            share,
            recorder,
            ..
        } = self;
        let wire = Wire {
            sizes,
            tx_coef: model.tx_coef(topo.radio_range()),
            rx_coef: model.rx_coef(),
            reliability: *reliability,
            loss,
            books,
            rel: rel_stats,
            hists,
            share,
            rec: recorder,
        };
        (tree, wire)
    }

    /// Sets the protocol phase that subsequent traffic is attributed to
    /// (per-phase counters and audit events). Protocols call this at each
    /// step boundary; the phase sticks until changed. With telemetry on, a
    /// phase change closes the open phase span and opens the next.
    pub fn set_phase(&mut self, phase: Phase) {
        if phase != self.books.phase && self.recorder.is_enabled() {
            self.recorder.end(
                self.books.phase.name(),
                0,
                self.books.audit.round(),
                self.phase_start,
            );
            self.phase_start = self.recorder.start();
        }
        self.books.phase = phase;
    }

    /// The phase currently charged for traffic.
    pub fn phase(&self) -> Phase {
        self.books.phase
    }

    /// Per-phase traffic/energy attribution since construction.
    pub fn phases(&self) -> &PhaseBreakdown {
        &self.books.phases
    }

    /// Sets the service lane (query slot) that subsequent traffic is
    /// attributed to, in both the live [`LaneBook`] and the audit log's
    /// events. Sticky until changed; `0` is the default lane. The service
    /// runner sets this before executing each query's waves so per-query
    /// charges stay bit-exact.
    pub fn set_lane(&mut self, lane: u32) {
        self.books.lane = lane;
        // Pre-size the book outside the hot path, so switching lanes never
        // allocates mid-wave.
        self.books.lanes.charge(lane, Phase::Other, 0, 0, 0.0);
    }

    /// Per-lane traffic/energy attribution since construction (lane 0
    /// holds everything unless [`Network::set_lane`] was used).
    pub fn lane_book(&self) -> &LaneBook {
        &self.books.lanes
    }

    /// Enables or disables shared-frame packing for multi-query rounds
    /// (the internal `SharedWave` accumulators): concurrent waves of one
    /// round share 802.15.4
    /// frames per link, so each extra payload pays only its marginal
    /// frames. Applies to lossless wave traffic only; accumulators reset
    /// at every [`Network::end_round`]. Off by default — the disabled path
    /// is byte-identical to releases without this feature.
    pub fn set_shared_frames(&mut self, on: bool) {
        self.share.enabled = on;
        let n = self.len();
        if on {
            self.share.up.resize(n, 0);
            self.share.down.resize(n, 0);
        }
        self.share.reset();
    }

    /// Holds or releases round boundaries. While held, protocol-internal
    /// [`Network::end_round`] calls are no-ops; the caller closes each
    /// real round with [`Network::finish_round`]. The multi-query service
    /// runner holds rounds so that all due queries execute inside one
    /// accounting round (one ledger snapshot, one shared-frame window).
    pub fn set_round_hold(&mut self, on: bool) {
        self.round_hold = on;
    }

    /// Closes the current round even while a round hold is active.
    pub fn finish_round(&mut self) {
        let hold = self.round_hold;
        self.round_hold = false;
        self.end_round();
        self.round_hold = hold;
    }

    /// Enables or disables transmission-event recording. Enable *before*
    /// any traffic flows: [`crate::audit::EnergyAuditor::verify`] can only
    /// reconcile a ledger whose every charge was witnessed.
    pub fn set_audit(&mut self, on: bool) {
        self.books.audit.set_enabled(on);
    }

    /// The transmission log (empty unless auditing is enabled).
    pub fn audit_log(&self) -> &AuditLog {
        &self.books.audit
    }

    /// Enables or disables wall-clock span recording (rounds, phases,
    /// waves, per-link transmissions, ARQ retries). Off by default: a
    /// disabled recorder costs one branch per tap point and never reads
    /// the clock or allocates, so untelemetered runs stay bit-identical
    /// and allocation-free. Enabling resets the span clock to now.
    pub fn set_telemetry(&mut self, on: bool) {
        self.recorder.set_enabled(on);
        self.round_start = self.recorder.start();
        self.phase_start = self.recorder.start();
    }

    /// The span recorder (its events feed [`wsn_obs::export::chrome_trace`]).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Per-node telemetry histograms: message bits, hop depth, ARQ
    /// retries, convergecast fan-in. Always recorded (array increments on
    /// the hot path, no allocation). Internally the sets live in wave-slot
    /// order for locality; this assembles an id-ordered copy (index `i` =
    /// node `i`), so call it per run, not per round.
    pub fn histograms(&self) -> NodeHistograms {
        let mut out = self.hists.store.clone();
        // Fold the hot cache's pending runs into the snapshot (the live
        // cells stay put — this is a read).
        SlotHists::fold_pending(&self.hists.hot, &mut out);
        out.reindex(&mut self.hist_slot.clone());
        out
    }

    /// The packet capture of the run so far (requires
    /// [`Network::set_audit`] before traffic flows; empty otherwise).
    pub fn capture(&self) -> Vec<PacketRecord> {
        self.books.audit.capture()
    }
    /// Enables Bernoulli message loss (the §6 future-work extension).
    /// Without a reliability layer, protocols are *not* informed of losses;
    /// the resulting rank error is what the loss experiments measure. With
    /// one ([`Network::set_reliability`]), ARQ and wave recovery fight the
    /// losses and [`Network::last_wave`] reports what still went missing.
    pub fn set_loss(&mut self, loss: Option<LossModel>) {
        self.loss = loss;
    }

    /// Configures the reliability layer (per-link ARQ retries and end-to-end
    /// recovery passes). The default config reproduces the plain lossy path
    /// bit for bit. Reliability only acts when a loss model is installed.
    pub fn set_reliability(&mut self, cfg: ReliabilityConfig) {
        self.reliability = cfg;
    }

    /// The active reliability configuration.
    pub fn reliability(&self) -> ReliabilityConfig {
        self.reliability
    }

    /// Cumulative reliability counters (retransmissions, ACKs, recoveries,
    /// failures, …).
    pub fn reliability_stats(&self) -> &ReliabilityStats {
        &self.rel_stats
    }

    /// Report of the most recent convergecast wave: who sent, and the roots
    /// of the subtrees whose contribution never reached the sink.
    pub fn last_wave(&self) -> &WaveReport {
        &self.wave
    }

    /// Marks, in a caller-owned mask (cleared and resized in place), every
    /// node whose contribution to the most recent convergecast failed to
    /// reach the sink: the union of the subtrees under
    /// [`WaveReport::dropped_roots`].
    pub fn mark_dropped_subtrees(&self, mask: &mut Vec<bool>) {
        mask.clear();
        mask.resize(self.len(), false);
        for &r in &self.wave.dropped_roots {
            self.tree.mark_subtree(r, mask);
        }
    }

    /// Installs (or removes) the crash-stop node-failure process.
    pub fn set_failures(&mut self, failures: Option<FailureModel>) {
        self.failures = failures;
    }

    /// Per-node liveness under the crash-stop failure process (all `true`
    /// without one; the root never fails).
    pub fn alive(&self) -> &[bool] {
        &self.alive
    }

    /// True iff `id` is alive *and* connected to the sink through the
    /// current (possibly repaired) routing tree.
    pub fn is_reachable(&self, id: NodeId) -> bool {
        self.alive[id.index()] && self.tree.contains(id)
    }

    /// Advances the failure process by one round: every live sensor dies
    /// independently with the model's probability, and if anyone died the
    /// routing tree is repaired over the surviving disk graph
    /// ([`RoutingTree::spanning_alive`]), re-parenting orphaned subtrees
    /// where a path exists. Returns the number of nodes that died this
    /// round. A no-op without a failure model.
    pub fn fail_round(&mut self) -> usize {
        let Some(fm) = self.failures.as_mut() else {
            return 0;
        };
        let mut newly = 0usize;
        for alive in self.alive.iter_mut().skip(1) {
            if *alive && fm.strike() {
                *alive = false;
                newly += 1;
            }
        }
        if newly > 0 {
            self.rel_stats.failed_nodes += newly as u64;
            let (tree, orphans) = RoutingTree::spanning_alive(&self.topo, &self.alive);
            self.install_tree(tree, orphans.len());
            self.rel_stats.repairs += 1;
        }
        newly
    }

    /// Installs a freshly built routing tree, re-permuting the
    /// wave-slot-ordered histogram storage so every node keeps its own
    /// history under the new slot map, and updating the orphan count.
    /// Shared by failure-driven repairs ([`Network::fail_round`]) and
    /// dynamics-driven rebuilds ([`Network::dynamics_rebuild`]); charges
    /// nothing.
    fn install_tree(&mut self, tree: RoutingTree, orphans: usize) {
        // Flush the hot cache first: its cells are keyed by the *old*
        // wave slots, which the permutation below is about to re-map.
        let hists = &mut self.hists;
        SlotHists::fold_pending(&hists.hot, &mut hists.store);
        hists.hot.fill(HistDelta::default());
        for (slot, new) in self.hist_slot.iter_mut().zip(hist_slots(&tree)) {
            hists.perm[new as usize] = *slot;
            *slot = new;
        }
        hists.store.reindex(&mut hists.perm);
        self.tree = tree;
        self.rel_stats.orphaned_nodes = orphans as u64;
    }

    /// Flips the liveness of one sensor without rebuilding anything — the
    /// churn process toggles bits first, then forces one
    /// [`Network::dynamics_rebuild`] covering every change. Joins
    /// (re-)enable a node that the crash-stop process or an earlier churn
    /// departure had removed; the node universe itself never changes size.
    ///
    /// # Panics
    /// Panics on the root: the sink neither departs nor joins.
    pub fn set_node_alive(&mut self, id: NodeId, alive: bool) {
        assert!(!id.is_root(), "the sink cannot churn");
        self.alive[id.index()] = alive;
    }

    /// Rebuilds the routing tree after a dynamics event: optionally
    /// re-derives the disk graph at new `positions` (mobility or churn
    /// moved the nodes; the radio range is unchanged; only links with a
    /// moved endpoint are re-tested) and swaps the previous positions back
    /// into the caller's buffer for reuse, spans
    /// the surviving nodes over it ([`RoutingTree::spanning_alive`]), and
    /// charges a *beacon wave* under [`Phase::Rebuild`] — every non-root
    /// tree node confirms its (possibly new) parent link with one
    /// counter-sized control message, in wave order. Beacons are control
    /// traffic on a freshly negotiated link, so they bypass the loss model
    /// (the fate stream is untouched); they do count as ordinary data
    /// messages in traffic stats, histograms and the audit log, which is
    /// what lets the auditor replay rebuild joules bit-exactly.
    ///
    /// Returns the number of orphaned (alive but disconnected) sensors.
    ///
    /// # Panics
    /// Panics if `positions` disagrees with the node universe size.
    pub fn dynamics_rebuild(&mut self, positions: Option<&mut Vec<Point>>) -> usize {
        if let Some(pos) = positions {
            assert_eq!(
                pos.len(),
                self.len(),
                "dynamics cannot resize the node universe"
            );
            self.topo.relocate(pos);
        }
        let (tree, orphans) = RoutingTree::spanning_alive(&self.topo, &self.alive);
        let orphan_count = orphans.len();
        self.install_tree(tree, orphan_count);
        self.rel_stats.rebuilds += 1;

        // Beacon wave over the new tree, lossless by construction.
        let saved_loss = self.loss.take();
        let beacon_bits = self.sizes.counter_bits;
        let (tree, mut wire) = self.wire();
        let sticky = std::mem::replace(&mut wire.books.phase, Phase::Rebuild);
        for (s, &u) in tree.bottom_up().iter().enumerate() {
            // The root reports to no one.
            if let Some(parent) = tree.parent(u) {
                wire.send(u, s, parent, beacon_bits, 0, false);
            }
        }
        wire.books.phase = sticky;
        self.loss = saved_loss;
        orphan_count
    }

    /// Sets the duty-cycle listen fraction in per-mille of a round
    /// (`0..=1000`). A duty-cycled radio stays awake listening for that
    /// fraction of every round even when nothing is addressed to it;
    /// [`Network::end_round`] charges each live sensor the rx-priced cost
    /// of a `duty_milli`-bit listen window and witnesses it with a
    /// [`TxKind::Idle`] audit event. `0` (the default) charges nothing and
    /// emits nothing — byte-identical to the pre-dynamics engine. `1000`
    /// is an always-on receiver.
    ///
    /// # Panics
    /// Panics when `duty_milli > 1000`.
    pub fn set_duty_cycle(&mut self, duty_milli: u32) {
        assert!(duty_milli <= 1000, "duty cycle is per-mille");
        self.duty_milli = duty_milli;
    }

    /// The duty-cycle listen fraction in per-mille.
    pub fn duty_cycle(&self) -> u32 {
        self.duty_milli
    }

    /// Retunes the installed loss model's probability in place (the drift
    /// schedule's per-round update). The fate stream keeps its position,
    /// so drift-free and drift-pinned runs draw identical sequences. A
    /// no-op when no loss model is installed.
    ///
    /// # Panics
    /// Panics unless `0.0 <= p <= 1.0` (with a loss model installed).
    pub fn set_loss_probability(&mut self, p: f64) {
        if let Some(loss) = self.loss.as_mut() {
            loss.set_probability(p);
        }
    }

    /// Number of nodes including the root.
    pub fn len(&self) -> usize {
        self.topo.len()
    }

    /// Never true.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of sensor nodes `|N|`.
    pub fn sensor_count(&self) -> usize {
        self.topo.sensor_count()
    }

    /// The routing tree.
    pub fn tree(&self) -> &RoutingTree {
        &self.tree
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Message sizing constants.
    pub fn sizes(&self) -> &MessageSizes {
        &self.sizes
    }

    /// Radio model parameters.
    pub fn model(&self) -> &RadioModel {
        &self.model
    }

    /// The energy ledger (read access for metrics).
    pub fn ledger(&self) -> &EnergyLedger {
        &self.books.ledger
    }

    /// Cumulative traffic statistics.
    pub fn stats(&self) -> &TrafficStats {
        &self.books.stats
    }

    /// Marks the end of a protocol round in the ledger (and, when auditing,
    /// snapshots the per-node account so the auditor can reconcile every
    /// round boundary, not just final totals). With telemetry on, closes
    /// the round's phase and round spans and opens the next round's.
    pub fn end_round(&mut self) {
        if self.round_hold {
            return;
        }
        let round = self.books.audit.round();
        if self.share.enabled {
            self.share.reset();
        }
        if self.duty_milli > 0 {
            // Idle listening: each live sensor pays the rx-priced cost of
            // keeping its radio awake for `duty_milli`‰ of the round, in
            // ascending node-id order (a deterministic charge order the
            // auditor replays). Nothing is on the air: traffic stats and
            // histograms are untouched; the audit log witnesses every
            // charge as a `TxKind::Idle` event with `src == dst`.
            let bits = self.duty_milli as u64;
            let rx = self.model.rx_energy(bits);
            let sticky = std::mem::replace(&mut self.books.phase, Phase::Other);
            for (i, &alive) in self.alive.iter().enumerate().skip(1) {
                if alive {
                    let id = NodeId(i as u32);
                    self.books.charge(TxKind::Idle, id, id, 0, bits, 0.0, rx);
                }
            }
            self.books.phase = sticky;
        }
        self.books.end_round();
        if self.recorder.is_enabled() {
            self.recorder
                .end(self.books.phase.name(), 0, round, self.phase_start);
            self.recorder.end("round", 0, round, self.round_start);
            self.round_start = self.recorder.start();
            self.phase_start = self.recorder.start();
        }
    }

    /// Runs a convergecast. `local` yields each *sensor* node's own
    /// contribution (the root takes no measurements). Returns the aggregate
    /// that reaches the root, or `None` if every node stayed silent.
    pub fn convergecast<T: Aggregate + Send + 'static>(
        &mut self,
        local: impl FnMut(NodeId) -> Option<T>,
    ) -> Option<T> {
        self.convergecast_with(local, |_, _| {})
    }

    /// Runs a convergecast where every sending node may prune/transform the
    /// merged payload before forwarding it (`prune` receives the node id and
    /// the payload about to be sent — or, at the root, the final payload).
    /// `local` is called once per sensor in the tree, in wave order.
    ///
    /// Pruning at the root is deliberate: the root applies the same logic
    /// (e.g. keeping the `f` largest values) when consuming the data.
    pub fn convergecast_with<T: Aggregate + Send + 'static>(
        &mut self,
        mut local: impl FnMut(NodeId) -> Option<T>,
        mut prune: impl FnMut(NodeId, &mut T),
    ) -> Option<T> {
        self.books.stats.convergecasts += 1;
        let tsize = self.tree.tree_size();
        let mut inbox = self.scratch.take_buf::<T>(tsize);
        // Detach the per-wave report and fan-in scratch (no allocation) so
        // they stay writable next to the wire's split borrows.
        let mut wave = std::mem::take(&mut self.wave);
        let mut fanin = std::mem::take(&mut self.fanin);
        wave.clear();
        fanin.clear();
        fanin.resize(tsize, 0);

        let (tree, mut wire) = self.wire();
        let wave_span = wire.rec.start();
        let round = wire.books.audit.round();
        let order = tree.bottom_up();
        let parent_slot = tree.parent_slots();
        let level_offsets = tree.level_offsets();
        // Shared framing applies to wave sends on a perfect channel with
        // the span recorder off; a telemetered run frames every send solo.
        let shared = wire.share.enabled && wire.loss.is_none() && !wire.rec.is_enabled();

        // (holder, origin, payload): payloads that died on a link, stashed
        // at the last node that held them so the recovery passes can resume
        // the climb where it stopped. `origin` is the node that first sent
        // the payload — the root of the subtree whose contributions it
        // carries (the tree gives a unique path, so the subtrees of the
        // origins are exactly the unaccounted nodes, with no overlap).
        let mut stranded: Vec<(NodeId, NodeId, T)> = Vec::new();

        // Level-batched waves over the struct-of-arrays order: each run of
        // `bottom_up` is one tree level (deepest first, children before
        // parents), so by the time a run starts, every inbox in it already
        // holds the merged payloads of its children, written by the
        // previous (denser) run. Depth is constant per run; inbox, fan-in
        // and histograms are indexed by wave slot, i.e. walked densely in
        // exactly this order. The final run is the root alone — its inbox
        // is collected after the loop.
        for lvl in 0..tree.levels().saturating_sub(1) {
            let start = level_offsets[lvl] as usize;
            let end = level_offsets[lvl + 1] as usize;
            let depth = tree.depth(order[start]) as u64;
            for pos in start..end {
                let u = order[pos];
                let from_children = inbox[pos].take();
                let own = local(u);
                let merged_in = fanin[pos] as u64 + own.is_some() as u64;
                let combined = match (from_children, own) {
                    (Some(mut a), Some(b)) => {
                        a.merge(b);
                        Some(a)
                    }
                    (Some(a), None) => Some(a),
                    (None, Some(b)) => Some(b),
                    (None, None) => None,
                };
                let Some(mut payload) = combined else {
                    continue;
                };
                prune(u, &mut payload);
                wave.senders += 1;
                wire.hists.record(pos, HistKind::HopDepth, depth);
                wire.hists.record(pos, HistKind::FanIn, merged_in);
                let bits = payload.payload_bits(wire.sizes);
                let pslot = parent_slot[pos] as usize;
                let parent = order[pslot];
                let values = payload.value_count();
                let arrived = wire.send(u, pos, parent, bits, values, shared);
                if arrived {
                    fanin[pslot] += 1;
                    match &mut inbox[pslot] {
                        Some(existing) => existing.merge(payload),
                        None => inbox[pslot] = Some(payload),
                    }
                } else if wire.reliability.recovery_passes > 0 {
                    stranded.push((u, u, payload));
                } else {
                    wave.dropped_roots.push(u);
                }
            }
        }
        // The root is always the last wave slot (the only depth-0 node).
        let mut result = inbox[tsize - 1].take();

        // Recovery passes: stranded payloads resume their climb towards the
        // root hop by hop, each hop a fresh (ARQ-protected) transmission.
        // Recovered payloads merge directly into the root's aggregate —
        // the intermediate nodes already forwarded their own wave upward.
        // Recovery climbs are reliability traffic, whatever phase stranded
        // the payload.
        let sticky = std::mem::replace(&mut wire.books.phase, Phase::Recovery);
        let mut pass = 0;
        while !stranded.is_empty() && pass < wire.reliability.recovery_passes {
            pass += 1;
            let mut still = Vec::new();
            for (start, origin, payload) in stranded {
                let bits = payload.payload_bits(wire.sizes);
                let values = payload.value_count();
                let mut at = start;
                let delivered = loop {
                    let parent = tree.parent(at).expect("stranded below the root");
                    let at_slot = tree.wave_slot(at).expect("stranded node is in the tree");
                    if !wire.send(at, at_slot, parent, bits, values, false) {
                        break false;
                    }
                    if parent.is_root() {
                        break true;
                    }
                    at = parent;
                };
                if delivered {
                    wire.rel.recovered += 1;
                    match result.as_mut() {
                        Some(existing) => (*existing).merge(payload),
                        None => result = Some(payload),
                    }
                } else {
                    still.push((at, origin, payload));
                }
            }
            stranded = still;
        }
        wire.books.phase = sticky;
        for (_, origin, _) in &stranded {
            wave.dropped_roots.push(*origin);
        }

        wire.rec.end("convergecast", 0, round, wave_span);

        // The root applies its prune exactly once, after recovery merged in
        // the late arrivals (it applies the same logic when consuming the
        // data, e.g. keeping the `f` largest values).
        if let Some(p) = result.as_mut() {
            prune(NodeId::ROOT, p);
        }
        self.wave = wave;
        self.fanin = fanin;
        self.scratch.put_buf(inbox);
        result
    }

    /// Floods a payload of `payload_bits` bits from the root to every node.
    /// Returns the set of nodes that actually received it (all of them
    /// without loss; possibly a subtree-prefix with loss enabled).
    ///
    /// The mask lives in a reusable scratch bitset owned by the network, so
    /// repeated broadcasts perform no heap allocation. Callers that need to
    /// keep the mask across further network calls should use
    /// [`Network::broadcast_into`] with their own buffer instead.
    pub fn broadcast(&mut self, payload_bits: u64) -> &NodeBits {
        // Detach the scratch mask so the wave engine's split field borrows
        // stay disjoint, then park it back and hand out a shared view.
        let mut received = std::mem::take(&mut self.bcast_recv);
        self.broadcast_into(payload_bits, &mut received);
        self.bcast_recv = received;
        &self.bcast_recv
    }

    /// [`Network::broadcast`] writing the per-node reception flags into a
    /// caller-owned bitset (cleared and resized in place), so repeated
    /// waves perform no heap allocation.
    pub fn broadcast_into(&mut self, payload_bits: u64, received: &mut NodeBits) {
        self.books.stats.broadcasts += 1;
        received.reset(self.len());
        received.set(NodeId::ROOT.index());

        // Split borrows, as in `convergecast_with`: traversal and child
        // lookups read the tree in place while the wire charges.
        let (tree, mut wire) = self.wire();
        let sizes = wire.sizes;
        let wave_span = wire.rec.start();
        let round = wire.books.audit.round();
        let order = tree.bottom_up();
        let solo = sizes.fragment(payload_bits);
        // Shared frames apply to lossless broadcasts only (per-fragment
        // loss draws must see the solo fragment stream).
        let sharing = wire.share.enabled && wire.loss.is_none();
        // Walk the wave slots in reverse (parents before children, the
        // top-down order): histogram blocks and CSR child lists are then
        // visited in storage order.
        for pos in (0..order.len()).rev() {
            let u = order[pos];
            if !received.get(u.index()) || tree.is_leaf(u) {
                continue;
            }
            // Per-transmitter marginal cost under sharing, the solo cost
            // otherwise.
            let (fragments, total_bits) = if sharing {
                SharedWave::frame(&mut wire.share.down[u.index()], payload_bits, sizes)
            } else {
                solo
            };
            let tx = total_bits as f64 * wire.tx_coef;
            let rx = total_bits as f64 * wire.rx_coef;
            // One radio transmission reaches all children (§5.1.4: receivers
            // pay because the schedule tells them when to listen). Broadcast
            // frames are unacknowledged, as in 802.15.4; reliability comes
            // from the repair passes below.
            wire.books
                .charge(TxKind::BroadcastTx, u, u, fragments, total_bits, tx, 0.0);
            let frames = sharing.then_some((fragments, total_bits));
            wire.hists.record_frames(pos, sizes, payload_bits, frames);
            wire.hists
                .record(pos, HistKind::HopDepth, tree.depth(u) as u64);
            for &c in tree.children(u) {
                // Bits were already counted once at the transmitter.
                wire.books
                    .charge(TxKind::BroadcastRx, u, c, fragments, total_bits, 0.0, rx);
                let arrived = match wire.loss {
                    // Each 802.15.4 frame is lost independently and the
                    // child needs every fragment. No short-circuit: every
                    // fragment draws from the loss stream.
                    Some(loss) => (0..fragments).fold(true, |ok, _| !loss.lose() && ok),
                    None => true,
                };
                if arrived {
                    received.set(c.index());
                }
            }
        }

        // Repair passes: a parent holding the payload re-offers it to
        // children that missed it as an ARQ-protected unicast (the missing
        // link-layer ACK tells the parent who is short). Children repaired
        // early in a pass repair their own children later in the same pass,
        // since top_down() visits parents before children. Repair re-offers
        // are reliability traffic.
        if wire.loss.is_some() {
            let sticky = std::mem::replace(&mut wire.books.phase, Phase::Recovery);
            for _ in 0..wire.reliability.recovery_passes {
                let mut repaired_any = false;
                for pos in (0..order.len()).rev() {
                    let u = order[pos];
                    if !received.get(u.index()) || tree.is_leaf(u) {
                        continue;
                    }
                    for &c in tree.children(u) {
                        if !received.get(c.index()) && wire.send(u, pos, c, payload_bits, 0, false)
                        {
                            received.set(c.index());
                            wire.rel.recovered += 1;
                            repaired_any = true;
                        }
                    }
                }
                if !repaired_any {
                    break;
                }
            }
            wire.books.phase = sticky;
        }
        wire.rec.end("broadcast", 0, round, wave_span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::EnergyAuditor;
    use crate::geometry::Point;

    /// Payload: a sum plus a vector of values.
    #[derive(Debug, Clone, PartialEq)]
    struct SumVals {
        sum: i64,
        vals: Vec<i64>,
    }

    impl Aggregate for SumVals {
        fn merge(&mut self, other: Self) {
            self.sum += other.sum;
            self.vals.extend(other.vals);
        }
        fn payload_bits(&self, sizes: &MessageSizes) -> u64 {
            sizes.counter_bits + self.vals.len() as u64 * sizes.value_bits
        }
        fn value_count(&self) -> usize {
            self.vals.len()
        }
    }

    fn line_network(n: usize) -> Network {
        let positions = (0..n).map(|i| Point::new(i as f64 * 10.0, 0.0)).collect();
        let topo = Topology::build(positions, 12.0);
        let tree = RoutingTree::shortest_path_tree(&topo).unwrap();
        Network::new(topo, tree, RadioModel::default(), MessageSizes::default())
    }

    #[test]
    fn convergecast_aggregates_all_contributions() {
        let mut net = line_network(5);
        let agg = net
            .convergecast(|id| {
                Some(SumVals {
                    sum: id.0 as i64,
                    vals: vec![id.0 as i64 * 100],
                })
            })
            .unwrap();
        assert_eq!(agg.sum, 1 + 2 + 3 + 4);
        let mut vals = agg.vals.clone();
        vals.sort_unstable();
        assert_eq!(vals, vec![100, 200, 300, 400]);
    }

    #[test]
    fn silent_nodes_send_nothing() {
        let mut net = line_network(5);
        let agg: Option<SumVals> = net.convergecast(|_| None);
        assert!(agg.is_none());
        assert_eq!(net.stats().messages, 0);
        assert_eq!(net.ledger().max_sensor_consumption(), 0.0);
    }

    #[test]
    fn intermediate_node_forwards_descendant_payload() {
        let mut net = line_network(4);
        // Only the farthest leaf (node 3) talks; nodes 2 and 1 must relay.
        let agg = net
            .convergecast(|id| {
                (id == NodeId(3)).then(|| SumVals {
                    sum: 7,
                    vals: vec![],
                })
            })
            .unwrap();
        assert_eq!(agg.sum, 7);
        // Three hops: 3->2, 2->1, 1->0.
        assert_eq!(net.stats().messages, 3);
        // Relays pay both rx and tx; leaf pays only tx; root pays only rx.
        let e1 = net.ledger().consumed(NodeId(1));
        let e3 = net.ledger().consumed(NodeId(3));
        assert!(e1 > e3);
    }

    #[test]
    fn pruning_shrinks_forwarded_payload() {
        let mut net = line_network(4);
        // Every node contributes 10 values; relays keep only 2.
        let agg = net
            .convergecast_with(
                |id| {
                    Some(SumVals {
                        sum: 0,
                        vals: vec![id.0 as i64; 10],
                    })
                },
                |_, p: &mut SumVals| {
                    p.vals.truncate(2);
                },
            )
            .unwrap();
        assert_eq!(agg.vals.len(), 2);
        // Hop 3->2 carries 2 values, hop 2->1 carries 2 (pruned from 12)...
        assert_eq!(net.stats().values, 6);
    }

    #[test]
    fn broadcast_reaches_everyone_and_charges_tx_per_internal_node() {
        let mut net = line_network(4);
        let received = net.broadcast(16);
        assert!(received.all());
        // Internal nodes 0,1,2 each transmit once.
        assert_eq!(net.stats().messages, 3);
        assert_eq!(net.stats().broadcasts, 1);
        // Leaf 3 only receives.
        let total = 16 + net.sizes().header_bits;
        let rx = net.model().rx_energy(total);
        assert!((net.ledger().consumed(NodeId(3)) - rx).abs() < 1e-18);
    }

    #[test]
    fn star_broadcast_single_transmission() {
        // Root with 4 direct children: one tx, four rx.
        let mut positions = vec![Point::new(0.0, 0.0)];
        for i in 0..4 {
            let a = i as f64 * std::f64::consts::FRAC_PI_2;
            positions.push(Point::new(a.cos() * 5.0, a.sin() * 5.0));
        }
        let topo = Topology::build(positions, 6.0);
        let tree = RoutingTree::shortest_path_tree(&topo).unwrap();
        let mut net = Network::new(topo, tree, RadioModel::default(), MessageSizes::default());
        net.broadcast(0);
        assert_eq!(net.stats().messages, 1);
    }

    #[test]
    fn fragmentation_inflates_message_count() {
        let mut net = line_network(2);
        // 100 values of 16 bits = 1600 bits > 1024-bit payload -> 2 fragments.
        net.convergecast(|_| {
            Some(SumVals {
                sum: 0,
                vals: vec![1; 100],
            })
        })
        .unwrap();
        // One payload too big for a single message... minus the sum counter.
        assert_eq!(net.stats().messages, 2);
    }

    #[test]
    fn end_round_snapshots_ledger() {
        let mut net = line_network(3);
        net.broadcast(0);
        net.end_round();
        assert_eq!(net.ledger().rounds(), 1);
    }

    fn one_value(id: NodeId) -> Option<SumVals> {
        Some(SumVals {
            sum: id.0 as i64,
            vals: vec![id.0 as i64],
        })
    }

    #[test]
    fn each_fragment_is_lost_independently() {
        // Fire-and-forget over a single 2-fragment link: the empirical
        // delivery rate must track (1-p)², not (1-p).
        let mut net = line_network(2);
        net.set_loss(Some(LossModel::new(0.4, 42)));
        let waves = 4000;
        for _ in 0..waves {
            net.convergecast(|_| {
                Some(SumVals {
                    sum: 0,
                    vals: vec![1; 100], // 1600 bits -> 2 fragments
                })
            });
        }
        let rate = net.reliability_stats().delivery_rate();
        let expected = 0.6 * 0.6;
        assert!((rate - expected).abs() < 0.03, "rate {rate}");
        // No ARQ traffic on the fire-and-forget path.
        assert_eq!(net.reliability_stats().acks, 0);
        assert_eq!(net.reliability_stats().retransmissions, 0);
    }

    #[test]
    fn arq_buys_delivery_with_retransmission_energy() {
        let mut lossy = line_network(2);
        lossy.set_loss(Some(LossModel::new(0.4, 7)));
        let mut arq = lossy.clone();
        arq.set_reliability(ReliabilityConfig::arq(6));
        let waves = 500;
        for _ in 0..waves {
            lossy.convergecast(one_value);
            arq.convergecast(one_value);
        }
        let plain = lossy.reliability_stats();
        let reliable = arq.reliability_stats();
        assert!(reliable.delivery_rate() > plain.delivery_rate());
        // P(all 7 data frames lost) = 0.4⁷ ≈ 0.0016 per hop.
        assert!(reliable.delivery_rate() > 0.99, "six retries at p=0.4");
        assert!(reliable.retransmissions > 0);
        assert!(reliable.acks as usize >= waves);
        // Reliability is never free: retries and ACKs hit the ledger.
        assert!(arq.ledger().max_sensor_consumption() > lossy.ledger().max_sensor_consumption());
    }

    #[test]
    fn retry_budget_zero_is_bit_identical_to_plain_loss() {
        let mut plain = line_network(5);
        plain.set_loss(Some(LossModel::new(0.3, 99)));
        let mut budget0 = plain.clone();
        budget0.set_reliability(ReliabilityConfig::arq(0));
        for _ in 0..200 {
            plain.convergecast(one_value);
            budget0.convergecast(one_value);
        }
        assert_eq!(plain.stats(), budget0.stats());
        assert_eq!(plain.reliability_stats(), budget0.reliability_stats());
        for i in 0..plain.len() {
            let id = NodeId(i as u32);
            assert!(plain.ledger().consumed(id) == budget0.ledger().consumed(id));
        }
    }

    #[test]
    fn total_loss_terminates_with_empty_result_and_full_report() {
        let mut net = line_network(4);
        net.set_loss(Some(LossModel::new(1.0, 1)));
        net.set_reliability(ReliabilityConfig::recovering(3, 4));
        let agg: Option<SumVals> = net.convergecast(one_value);
        assert!(agg.is_none());
        let wave = net.last_wave();
        assert!(!wave.is_complete());
        assert_eq!(wave.senders, 3);
        // The first hop (node 3 -> 2) already fails, so every sensor is a
        // dropped root and the dropped mask covers all sensors.
        let mut mask = Vec::new();
        net.mark_dropped_subtrees(&mut mask);
        assert_eq!(mask, vec![false, true, true, true]);
        // Broadcast under total loss terminates too (repair passes give up).
        let received = net.broadcast(16);
        assert!(!received.get(1) && !received.get(2) && !received.get(3));
    }

    #[test]
    fn recovery_passes_salvage_stranded_payloads() {
        let mut net = line_network(5);
        net.set_loss(Some(LossModel::new(0.35, 3)));
        net.set_reliability(ReliabilityConfig::recovering(2, 4));
        let mut complete = 0;
        let waves = 300;
        for _ in 0..waves {
            let agg = net.convergecast(one_value);
            if net.last_wave().is_complete() {
                complete += 1;
                // A complete wave carries every sensor's contribution.
                assert_eq!(agg.unwrap().sum, 1 + 2 + 3 + 4);
            }
        }
        assert!(complete > waves * 9 / 10, "complete {complete}/{waves}");
        assert!(net.reliability_stats().recovered > 0);
    }

    #[test]
    fn broadcast_repair_reoffers_to_missed_children() {
        let mut net = line_network(6);
        net.set_loss(Some(LossModel::new(0.4, 11)));
        net.set_reliability(ReliabilityConfig::recovering(6, 6));
        let mut all = 0;
        let waves = 200;
        let mut received = NodeBits::new();
        for _ in 0..waves {
            net.broadcast_into(64, &mut received);
            if received.all() {
                all += 1;
            }
        }
        assert!(all > waves * 9 / 10, "all {all}/{waves}");
        assert!(net.reliability_stats().recovered > 0);
    }

    #[test]
    fn fail_round_kills_and_repairs_the_tree() {
        let mut net = line_network(4);
        assert_eq!(net.fail_round(), 0, "no failure model installed");
        net.set_failures(Some(FailureModel::new(1.0, 5)));
        assert_eq!(net.fail_round(), 3);
        assert!(net.alive()[0]);
        assert!(!net.alive()[1] && !net.alive()[2] && !net.alive()[3]);
        assert!(net.is_reachable(NodeId::ROOT));
        assert!(!net.is_reachable(NodeId(2)));
        let stats = *net.reliability_stats();
        assert_eq!(stats.failed_nodes, 3);
        assert_eq!(stats.repairs, 1);
        assert_eq!(stats.orphaned_nodes, 0, "dead nodes are not orphans");
        // Dead nodes neither contribute nor relay: the wave is root-only.
        let agg: Option<SumVals> = net.convergecast(one_value);
        assert!(agg.is_none());
        assert_eq!(net.stats().messages, 0);
        // Further rounds are no-ops: everyone is already dead.
        assert_eq!(net.fail_round(), 0);
        assert_eq!(net.reliability_stats().repairs, 1);
    }

    #[test]
    #[should_panic(expected = "invalid MessageSizes")]
    fn network_rejects_degenerate_sizes() {
        let positions = (0..2).map(|i| Point::new(i as f64 * 10.0, 0.0)).collect();
        let topo = Topology::build(positions, 12.0);
        let tree = RoutingTree::shortest_path_tree(&topo).unwrap();
        let sizes = MessageSizes {
            value_bits: 0,
            ..MessageSizes::default()
        };
        Network::new(topo, tree, RadioModel::default(), sizes);
    }

    #[test]
    fn phase_breakdown_sums_to_global_stats() {
        let mut net = line_network(5);
        net.set_loss(Some(LossModel::new(0.3, 21)));
        net.set_reliability(ReliabilityConfig::recovering(2, 3));
        net.set_phase(Phase::Validation);
        for _ in 0..50 {
            net.convergecast(one_value);
        }
        net.set_phase(Phase::Refinement);
        let mut buf = NodeBits::new();
        for _ in 0..20 {
            net.broadcast_into(64, &mut buf);
        }
        let b = *net.phases();
        assert_eq!(b.messages().iter().sum::<u64>(), net.stats().messages);
        assert_eq!(b.bits().iter().sum::<u64>(), net.stats().bits);
        assert!(b.get(Phase::Validation).messages > 0);
        assert!(b.get(Phase::Refinement).messages > 0);
        assert_eq!(b.get(Phase::Init).messages, 0);
        // Every joule the ledger saw is attributed to some phase.
        let total: f64 = net.ledger().consumed_per_node().iter().sum();
        assert!((b.total_joules() - total).abs() <= 1e-12 * total.max(1.0));
    }

    #[test]
    fn audited_lossy_run_reconciles_bit_exactly() {
        use crate::audit::EnergyAuditor;
        let mut net = line_network(6);
        net.set_audit(true);
        net.set_loss(Some(LossModel::new(0.35, 13)));
        net.set_reliability(ReliabilityConfig::recovering(3, 4));
        net.set_failures(Some(FailureModel::new(0.01, 17)));
        let mut buf = NodeBits::new();
        for _ in 0..30 {
            net.fail_round();
            net.set_phase(Phase::Validation);
            net.convergecast(one_value);
            net.set_phase(Phase::Refinement);
            net.broadcast_into(100, &mut buf);
            net.end_round();
        }
        let report = EnergyAuditor::verify(&net);
        assert!(report.is_clean(), "{:?}", report.discrepancies);
        assert!(report.events > 0);
        assert_eq!(report.rounds_checked, 30);
        assert!(net
            .audit_log()
            .events()
            .iter()
            .any(|e| e.phase == Phase::Recovery));
    }

    #[test]
    fn dynamics_rebuild_charges_beacons_and_replays_bit_exactly() {
        let mut net = line_network(5);
        net.set_audit(true);
        net.set_phase(Phase::Validation);
        net.convergecast(one_value);
        net.end_round();

        let before = net.phases().get(Phase::Rebuild).joules;
        assert_eq!(before, 0.0, "no rebuild charged yet");
        let orphans = net.dynamics_rebuild(None);
        assert_eq!(orphans, 0);
        assert_eq!(net.reliability_stats().rebuilds, 1);
        let rebuilt = net.phases().get(Phase::Rebuild);
        assert!(rebuilt.joules > 0.0, "beacon wave must cost energy");
        assert_eq!(rebuilt.messages, 4, "one beacon per non-root node");

        net.convergecast(one_value);
        net.end_round();
        let report = EnergyAuditor::verify(&net);
        assert!(report.is_clean(), "{:?}", report.discrepancies);
        assert!(report.events > 0);
    }

    #[test]
    fn rebuild_beacons_bypass_the_loss_model_and_its_fate_stream() {
        // Beacons negotiate fresh links, so they must neither be lost nor
        // consume fate draws: a run with a rebuild sandwiched between two
        // lossy rounds sees the same post-rebuild fates as one without.
        let mut a = line_network(4);
        a.set_loss(Some(LossModel::new(0.5, 77)));
        a.set_phase(Phase::Validation);
        let mut b = a.clone();
        a.convergecast(one_value);
        b.convergecast(one_value);
        a.end_round();
        b.end_round();
        a.dynamics_rebuild(None); // same topology: an identical tree
        a.convergecast(one_value);
        b.convergecast(one_value);
        // Beacons are always delivered (3 of them here); the *data* fates
        // after the rebuild must match the rebuild-free run exactly.
        assert_eq!(
            a.reliability_stats().delivered,
            b.reliability_stats().delivered + 3
        );
        assert_eq!(
            a.phases().get(Phase::Validation),
            b.phases().get(Phase::Validation),
            "data traffic is bit-identical with and without the rebuild"
        );
        assert_eq!(a.reliability_stats().rebuilds, 1);
        assert_eq!(b.reliability_stats().rebuilds, 0);
    }

    #[test]
    fn rebuild_reindexes_per_node_histograms() {
        // Regression: per-node histograms live in wave-slot order, and a
        // dynamics rebuild re-derives that order. Each node must keep its
        // *own* history across the rebuild, not inherit whichever node now
        // occupies its old slot.
        let mut net = line_network(5);
        net.set_phase(Phase::Validation);
        net.convergecast(one_value); // depths 1, 2, 3, 4 down the chain
        net.end_round();

        // Node 4 walks next to the sink; everyone else stays put. New
        // depths: 1→1, 2→2, 3→3, 4→1.
        let mut positions: Vec<Point> = (0..5).map(|i| Point::new(i as f64 * 10.0, 0.0)).collect();
        positions[4] = Point::new(0.0, 10.0);
        net.dynamics_rebuild(Some(&mut positions));
        net.convergecast(one_value);
        net.end_round();

        let hists = net.histograms();
        let depth = |id: usize| *hists.node(id).get(HistKind::HopDepth);
        assert_eq!(depth(4).max(), 4, "node 4 keeps its old depth-4 sample");
        assert_eq!(depth(4).sum(), 4 + 1);
        assert_eq!(depth(1).max(), 1, "node 1 was always depth 1");
        assert_eq!(depth(1).sum(), 1 + 1);
        assert_eq!(depth(3).sum(), 3 + 3);
        for id in 1..5 {
            assert_eq!(depth(id).count(), 2, "two samples per node");
        }
    }

    #[test]
    fn duty_cycled_idle_listening_audits_cleanly() {
        let mut net = line_network(4);
        net.set_audit(true);
        net.set_duty_cycle(250);
        net.set_phase(Phase::Validation);
        let idle_leaf = net.ledger().consumed(NodeId(3));
        for _ in 0..3 {
            net.convergecast(|id| (id == NodeId(1)).then(|| one_value(id)).flatten());
            net.end_round();
        }
        // Node 3 never transmitted or received, yet its radio listened.
        assert!(net.ledger().consumed(NodeId(3)) > idle_leaf);
        let idles = net
            .audit_log()
            .events()
            .iter()
            .filter(|e| e.kind == TxKind::Idle)
            .count();
        assert_eq!(idles, 3 * 3, "one idle event per alive sensor per round");
        let report = EnergyAuditor::verify(&net);
        assert!(report.is_clean(), "{:?}", report.discrepancies);
    }

    #[test]
    fn zero_duty_cycle_matches_the_static_engine_bit_for_bit() {
        let mut plain = line_network(4);
        plain.set_phase(Phase::Validation);
        let mut duty = plain.clone();
        duty.set_duty_cycle(0);
        for _ in 0..5 {
            plain.convergecast(one_value);
            duty.convergecast(one_value);
            plain.end_round();
            duty.end_round();
        }
        for id in 0..4 {
            assert_eq!(
                plain.ledger().consumed(NodeId(id)),
                duty.ledger().consumed(NodeId(id))
            );
        }
        assert_eq!(plain.phases(), duty.phases());
    }

    #[test]
    #[should_panic(expected = "the sink cannot churn")]
    fn the_sink_never_churns() {
        let mut net = line_network(3);
        net.set_node_alive(NodeId(0), false);
    }

    #[test]
    fn all_but_sink_crash_then_rejoin() {
        // Boundary: every sensor departs (the tree collapses to the root),
        // then everyone rejoins — the engine must survive both rebuilds
        // and the audit must reconcile across them.
        let mut net = line_network(4);
        net.set_audit(true);
        net.set_phase(Phase::Validation);
        for id in 1..4 {
            net.set_node_alive(NodeId(id), false);
        }
        let orphans = net.dynamics_rebuild(None);
        assert_eq!(orphans, 0, "dead nodes are not orphans");
        assert!(net.convergecast(one_value).is_none(), "no sensors left");
        net.end_round();

        for id in 1..4 {
            net.set_node_alive(NodeId(id), true);
        }
        net.dynamics_rebuild(None);
        let agg = net.convergecast(one_value).expect("everyone is back");
        assert_eq!(agg.sum, 1 + 2 + 3);
        net.end_round();
        assert_eq!(net.reliability_stats().rebuilds, 2);
        let report = EnergyAuditor::verify(&net);
        assert!(report.is_clean(), "{:?}", report.discrepancies);
    }

    #[test]
    fn telemetry_observes_without_perturbing() {
        // Histograms are always-on and the recorder is a pure observer:
        // a fully telemetered run must be bit-identical to a bare one.
        let mut plain = line_network(5);
        plain.set_loss(Some(LossModel::new(0.3, 5)));
        plain.set_reliability(ReliabilityConfig::arq(2));
        plain.set_phase(Phase::Validation);
        let mut telem = plain.clone();
        telem.set_audit(true);
        telem.set_telemetry(true);
        for _ in 0..50 {
            plain.convergecast(one_value);
            telem.convergecast(one_value);
            plain.end_round();
            telem.end_round();
        }
        assert_eq!(plain.stats(), telem.stats());
        assert_eq!(plain.histograms(), telem.histograms());
        // Every data frame (retransmissions included, ACKs excluded) is a
        // MsgBits sample, so the histogram count equals the message count.
        let total = telem.histograms().total();
        assert_eq!(
            total.get(wsn_obs::HistKind::MsgBits).count(),
            telem.stats().messages
        );
        assert_eq!(total.get(wsn_obs::HistKind::HopDepth).max(), 4);
        let events = telem.recorder().events();
        assert!(events.iter().any(|e| e.name == "round"));
        assert!(events.iter().any(|e| e.name == "convergecast"));
        assert!(events.iter().any(|e| e.name == "validation" && e.track > 0));
        assert!(plain.recorder().events().is_empty());
        let cap = telem.capture();
        assert_eq!(cap.len(), telem.audit_log().events().len());
        assert!(cap
            .iter()
            .any(|r| r.kind == "data" && r.phase == "validation"));
        assert!(plain.capture().is_empty());
    }

    #[test]
    fn auditing_perturbs_neither_stats_nor_ledger() {
        // The audit log must be a pure observer: it consumes no randomness
        // and charges nothing, so an audited run is bit-identical to an
        // unaudited one.
        let mut plain = line_network(5);
        plain.set_loss(Some(LossModel::new(0.3, 99)));
        plain.set_reliability(ReliabilityConfig::recovering(2, 2));
        let mut audited = plain.clone();
        audited.set_audit(true);
        for _ in 0..100 {
            plain.convergecast(one_value);
            audited.convergecast(one_value);
        }
        assert_eq!(plain.stats(), audited.stats());
        for i in 0..plain.len() {
            let id = NodeId(i as u32);
            assert!(plain.ledger().consumed(id) == audited.ledger().consumed(id));
        }
        assert!(plain.audit_log().events().is_empty());
        assert!(!audited.audit_log().events().is_empty());
    }

    #[test]
    fn shared_frames_cost_one_concatenated_payload_per_link() {
        // Three identical waves in one round: under sharing each link must
        // cost exactly fragment(sum of payloads), i.e. the payload bits of
        // every wave plus ONE set of headers per link.
        let mut solo = line_network(3);
        let mut shared = line_network(3);
        shared.set_shared_frames(true);
        for _ in 0..3 {
            solo.convergecast(one_value);
            shared.convergecast(one_value);
        }
        // Node 2 sends 1 value (counter + value = 32 bits), node 1 merges
        // and sends 2 values (48 bits); defaults: 128-bit header.
        let link2 = 3 * 32 + 128;
        let link1 = 3 * 48 + 128;
        assert_eq!(shared.stats().bits, link2 + link1);
        assert_eq!(solo.stats().bits, 3 * (32 + 128) + 3 * (48 + 128));
        // Only the first wave opens frames; later waves piggyback.
        assert_eq!(shared.stats().messages, 2);
        // The MsgBits histogram still counts one sample per frame.
        assert_eq!(
            shared
                .histograms()
                .total()
                .get(wsn_obs::HistKind::MsgBits)
                .count(),
            shared.stats().messages
        );
        // A round boundary resets the accumulators: the next wave pays the
        // full solo cost again.
        shared.end_round();
        let before = shared.stats().bits;
        shared.convergecast(one_value);
        assert_eq!(shared.stats().bits - before, (32 + 128) + (48 + 128));
    }

    #[test]
    fn shared_first_send_is_bit_identical_to_solo() {
        // One wave per round: sharing never engages beyond the first
        // payload, so everything (bits, energies, events) is unchanged.
        let mut plain = line_network(5);
        let mut shared = line_network(5);
        plain.set_audit(true);
        shared.set_audit(true);
        shared.set_shared_frames(true);
        for _ in 0..4 {
            plain.convergecast(one_value);
            plain.broadcast(64);
            plain.end_round();
            shared.convergecast(one_value);
            shared.broadcast(64);
            shared.end_round();
        }
        assert_eq!(plain.stats(), shared.stats());
        assert_eq!(plain.audit_log().events(), shared.audit_log().events());
        for i in 0..plain.len() {
            let id = NodeId(i as u32);
            assert!(plain.ledger().consumed(id) == shared.ledger().consumed(id));
        }
    }

    #[test]
    fn shared_broadcasts_pay_marginal_frames_only() {
        let mut net = line_network(4);
        net.set_shared_frames(true);
        net.broadcast(64);
        let first = net.stats().bits;
        // 3 internal transmitters × (64 + 128).
        assert_eq!(first, 3 * (64 + 128));
        net.broadcast(64);
        // Same round: the second broadcast rides the open frames.
        assert_eq!(net.stats().bits - first, 3 * 64);
        let report = EnergyAuditor::verify(&net);
        assert!(report.is_clean() || net.audit_log().events().is_empty());
    }

    /// The single charge path keeps every book consistent: the live lane
    /// book replays bit for bit from the audit log, the lanes partition
    /// the phase breakdown, the phases sum to the global stats, and the
    /// auditor reconciles the ledger.
    fn assert_books_reconcile(net: &Network) {
        let book = net.lane_book();
        let replayed = crate::audit::lane_breakdowns(net.audit_log(), book.len());
        assert_eq!(replayed.len(), book.len());
        for (lane, b) in replayed.iter().enumerate() {
            assert_eq!(*b, book.get(lane as u32), "lane {lane} replay");
        }
        let phases = *net.phases();
        for phase in Phase::ALL {
            let sum = |f: fn(&crate::audit::PhaseCounters) -> u64| -> u64 {
                book.breakdowns().iter().map(|b| f(b.get(phase))).sum()
            };
            assert_eq!(sum(|c| c.bits), phases.get(phase).bits, "{}", phase.name());
            assert_eq!(
                sum(|c| c.messages),
                phases.get(phase).messages,
                "{}",
                phase.name()
            );
        }
        assert_eq!(phases.messages().iter().sum::<u64>(), net.stats().messages);
        assert_eq!(phases.bits().iter().sum::<u64>(), net.stats().bits);
        let report = EnergyAuditor::verify(net);
        assert!(report.is_clean(), "{:?}", report.discrepancies);
    }

    #[test]
    fn lane_book_partitions_charges_and_replays_bit_exactly() {
        let mut net = line_network(4);
        net.set_audit(true);
        net.set_shared_frames(true);
        // Two lanes interleaved within one round, plus broadcast traffic.
        for _ in 0..3 {
            net.set_lane(0);
            net.convergecast(one_value);
            net.broadcast(32);
            net.set_lane(1);
            net.convergecast(one_value);
            net.broadcast(32);
            net.end_round();
        }
        let book = net.lane_book();
        assert_eq!(book.len(), 2);
        // Lane 1 piggybacks on lane 0's frames, so it is strictly cheaper.
        assert!(
            book.get(1).get(Phase::Other).bits < book.get(0).get(Phase::Other).bits,
            "piggybacking lane must pay fewer bits"
        );
        assert_books_reconcile(&net);

        // Every other kind of charge — ARQ retries and ACKs, recovery
        // climbs and broadcast repairs, idle listening — goes through the
        // same path and replays just as exactly.
        let mut net = line_network(6);
        net.set_audit(true);
        net.set_loss(Some(LossModel::new(0.3, 41)));
        net.set_reliability(ReliabilityConfig::recovering(2, 3));
        net.set_duty_cycle(200);
        let mut buf = NodeBits::new();
        for round in 0..12u32 {
            net.set_lane(round % 3);
            net.set_phase(Phase::Validation);
            net.convergecast(one_value);
            net.set_lane(2 - round % 3);
            net.set_phase(Phase::Refinement);
            net.broadcast_into(80, &mut buf);
            net.end_round();
        }
        let kinds: Vec<TxKind> = net.audit_log().events().iter().map(|e| e.kind).collect();
        for kind in [
            TxKind::Data,
            TxKind::Ack,
            TxKind::BroadcastTx,
            TxKind::BroadcastRx,
            TxKind::Idle,
        ] {
            assert!(kinds.contains(&kind), "{} never charged", kind.name());
        }
        assert!(net.phases().get(Phase::Recovery).messages > 0);
        assert_eq!(net.lane_book().len(), 3);
        assert_books_reconcile(&net);
    }
}
