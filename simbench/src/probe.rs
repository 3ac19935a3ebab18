//! A counting probe for the traced run: one counter per hook the
//! simulator already calls, so per-layer ratios are measured where the
//! work happens.

use heterowire_core::Probe;
use heterowire_isa::OpClass;
use heterowire_wires::WireClass;

/// Event counts of one or more traced runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingProbe {
    pub dispatch: u64,
    pub steer: u64,
    pub steer_stall: u64,
    pub issue: u64,
    pub commit: u64,
    pub enqueue: u64,
    pub depart: u64,
    pub queued_cycles: u64,
    pub deliver: u64,
    pub fault_detected: u64,
    pub retransmit: u64,
    pub steer_overflow: u64,
    pub lsq_partial_conflict: u64,
    pub lsq_partial_ready: u64,
    pub lsq_full_ready: u64,
    pub occupancy: u64,
    /// Last cycle any hook saw: a run's simulated length, warm-up
    /// included, is this plus one.
    pub last_cycle: u64,
}

impl CountingProbe {
    fn saw(&mut self, cycle: u64) {
        self.last_cycle = self.last_cycle.max(cycle);
    }

    /// Adds another run's event counts (`last_cycle` is per run and is
    /// left alone).
    pub fn absorb(&mut self, o: &CountingProbe) {
        self.dispatch += o.dispatch;
        self.steer += o.steer;
        self.steer_stall += o.steer_stall;
        self.issue += o.issue;
        self.commit += o.commit;
        self.enqueue += o.enqueue;
        self.depart += o.depart;
        self.queued_cycles += o.queued_cycles;
        self.deliver += o.deliver;
        self.fault_detected += o.fault_detected;
        self.retransmit += o.retransmit;
        self.steer_overflow += o.steer_overflow;
        self.lsq_partial_conflict += o.lsq_partial_conflict;
        self.lsq_partial_ready += o.lsq_partial_ready;
        self.lsq_full_ready += o.lsq_full_ready;
        self.occupancy += o.occupancy;
    }

    /// Every event count by name, for the span file.
    pub fn named(&self) -> [(&'static str, u64); 16] {
        [
            ("dispatch", self.dispatch),
            ("steer", self.steer),
            ("steer_stall", self.steer_stall),
            ("issue", self.issue),
            ("commit", self.commit),
            ("enqueue", self.enqueue),
            ("depart", self.depart),
            ("queued_cycles", self.queued_cycles),
            ("deliver", self.deliver),
            ("fault_detected", self.fault_detected),
            ("retransmit", self.retransmit),
            ("steer_overflow", self.steer_overflow),
            ("lsq_partial_conflict", self.lsq_partial_conflict),
            ("lsq_partial_ready", self.lsq_partial_ready),
            ("lsq_full_ready", self.lsq_full_ready),
            ("occupancy", self.occupancy),
        ]
    }
}

impl Probe for CountingProbe {
    fn dispatch(&mut self, cycle: u64, _seq: u64, _cluster: usize, _op: OpClass) {
        self.dispatch += 1;
        self.saw(cycle);
    }

    fn steer_decision(&mut self, _cycle: u64, chosen: Option<usize>) {
        self.steer += 1;
        self.steer_stall += u64::from(chosen.is_none());
    }

    fn issue(&mut self, _cycle: u64, _seq: u64, _cluster: usize) {
        self.issue += 1;
    }

    fn commit(&mut self, cycle: u64, _seq: u64) {
        self.commit += 1;
        self.saw(cycle);
    }

    fn enqueue(&mut self, _cycle: u64, _id: u64, _class: WireClass) {
        self.enqueue += 1;
    }

    fn depart(&mut self, _cycle: u64, _id: u64, _class: WireClass, queued: u64) {
        self.depart += 1;
        self.queued_cycles += queued;
    }

    fn deliver(&mut self, _cycle: u64, _id: u64, _class: WireClass) {
        self.deliver += 1;
    }

    fn fault_detected(&mut self, _cycle: u64, _id: u64, _class: WireClass, _attempt: u32) {
        self.fault_detected += 1;
    }

    fn retransmit(&mut self, _cycle: u64, _id: u64, _class: WireClass, _attempt: u32) {
        self.retransmit += 1;
    }

    fn steer_overflow(&mut self, _cycle: u64, _target: WireClass) {
        self.steer_overflow += 1;
    }

    fn lsq_partial_conflict(&mut self, _cycle: u64, _seq: u64) {
        self.lsq_partial_conflict += 1;
    }

    fn lsq_partial_ready(&mut self, _cycle: u64, _seq: u64) {
        self.lsq_partial_ready += 1;
    }

    fn lsq_full_ready(&mut self, _cycle: u64, _seq: u64, _forward: bool) {
        self.lsq_full_ready += 1;
    }

    fn occupancy(&mut self, cycle: u64, _rob: usize, _lsq: usize, _ready: usize) {
        self.occupancy += 1;
        self.saw(cycle);
    }
}
