//! Digest of a cell's simulated outputs: every deterministic number a
//! transfer reports (elapsed time, events, and the disk, bus, cache, net,
//! serve and fault counters), never a host time. Two builds whose digests
//! agree produced bit-identical simulated statistics.

use ddio_core::TransferOutcome;

/// 64-bit FNV-1a over little-endian words.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds one word in.
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one float in, by its bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The fingerprint of one transfer's simulated outputs.
pub fn fingerprint(o: &TransferOutcome) -> u64 {
    let mut h = Fnv::default();
    h.u64(o.elapsed.as_nanos());
    h.u64(o.sim_events);
    h.u64(o.transferred_bytes);
    h.f64(o.throughput_mibs);
    h.f64(o.aggregate_mibs);
    h.u64(o.messages);
    h.u64(o.network_bytes);
    for d in &o.disk_stats {
        for v in [
            d.requests,
            d.sequential_hits,
            d.seek_time.as_nanos(),
            d.rotation_time.as_nanos(),
            d.transfer_time.as_nanos(),
            d.busy_time.as_nanos(),
            d.sectors,
            d.queue_depth_sum,
            d.max_queue_depth,
        ] {
            h.u64(v);
        }
    }
    for &u in o
        .disk_utilization
        .iter()
        .chain(&o.bus_utilization)
        .chain(&o.ni_send_utilization)
        .chain(&o.ni_recv_utilization)
    {
        h.f64(u);
    }
    for l in &o.link_stats {
        h.u64(l.from as u64);
        h.u64(l.to as u64);
        h.u64(l.messages);
        h.u64(l.busy.as_nanos());
    }
    for c in &o.cache_stats {
        match c {
            None => h.u64(u64::MAX),
            Some(c) => {
                for v in [
                    c.hits,
                    c.misses,
                    c.prefetches,
                    c.prefetch_used,
                    c.prefetch_wasted,
                    c.evictions,
                    c.dirty_evictions,
                    c.overflows,
                    c.flushes,
                ] {
                    h.u64(v);
                }
            }
        }
    }
    let f = &o.fault_stats;
    h.u64(f.events_fired);
    h.u64(f.reconstruction_reads);
    h.f64(f.degraded_secs);
    h.u64(f.lost_blocks);
    let s = &o.serve;
    h.u64(s.requests);
    h.u64(s.served_bytes);
    for v in [
        s.p50_ms,
        s.p99_ms,
        s.p999_ms,
        s.mean_ms,
        s.max_ms,
        s.mean_queue_ms,
    ] {
        h.f64(v);
    }
    for t in &s.per_tenant {
        h.u64(t.tenant as u64);
        h.u64(t.requests);
        h.u64(t.bytes);
        h.f64(t.mibs);
    }
    h.finish()
}

/// The digest of a whole workload: its cells' fingerprints, in order.
pub fn combine(fingerprints: &[u64]) -> u64 {
    let mut h = Fnv::default();
    for &f in fingerprints {
        h.u64(f);
    }
    h.finish()
}
