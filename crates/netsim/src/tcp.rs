//! A Reno-style reliable transport, the "Direct TCP" baseline.
//!
//! Fig. 7 compares coded multicast against a direct TCP transfer from the
//! source to each receiver. This module implements enough of TCP Reno to
//! make that baseline honest: slow start, congestion avoidance, fast
//! retransmit on three duplicate ACKs, fast recovery, exponential-backoff
//! RTO with Karn's rule, and a cumulative-ACK receiver with an
//! out-of-order reassembly buffer.
//!
//! Segments are framed in the datagram payload as:
//!
//! ```text
//! byte 0      kind: 1 = DATA, 2 = ACK
//! bytes 1-8   sequence/ack number (byte offset), big endian
//! bytes 9..   payload (DATA only)
//! ```

use std::collections::BTreeMap;

use bytes::{BufMut, Bytes, BytesMut};

use crate::node::{Context, NodeBehavior};
use crate::packet::{Addr, Datagram};
use crate::stats::ThroughputSeries;
use crate::time::{SimDuration, SimTime};

const KIND_DATA: u8 = 1;
const KIND_ACK: u8 = 2;
const SEG_HEADER: usize = 9;

/// Maximum segment size used by the baseline (1460-byte payload minus our
/// 9-byte segment header keeps wire packets within the MTU, mirroring the
/// NC packet sizing).
const DEFAULT_MSS: usize = 1451;

fn encode_segment(kind: u8, seq: u64, payload: &[u8]) -> Bytes {
    let mut buf = BytesMut::with_capacity(SEG_HEADER + payload.len());
    buf.put_u8(kind);
    buf.put_u64(seq);
    buf.put_slice(payload);
    buf.freeze()
}

fn decode_segment(payload: &[u8]) -> Option<(u8, u64, &[u8])> {
    if payload.len() < SEG_HEADER {
        return None;
    }
    let kind = payload[0];
    let seq = u64::from_be_bytes(payload[1..9].try_into().expect("8 bytes"));
    Some((kind, seq, &payload[SEG_HEADER..]))
}

/// Reno sender: transfers `total_bytes` of synthetic data to a
/// [`TcpReceiver`].
#[derive(Debug)]
pub struct TcpSender {
    peer: Addr,
    mss: usize,
    total: u64,
    // --- sliding window state (byte offsets) ---
    snd_una: u64,
    snd_nxt: u64,
    // --- congestion control (bytes) ---
    cwnd: f64,
    ssthresh: f64,
    /// Receive-window cap on the flight size. Without SACK, a deep-queue
    /// overflow with hundreds of holes degenerates into one-hole-per-RTT
    /// NewReno recovery; real stacks bound the flight with the peer's
    /// advertised window, and so do we.
    max_window: f64,
    dup_acks: u32,
    in_recovery: bool,
    recover: u64,
    // --- RTT estimation / RTO ---
    srtt: Option<f64>,
    rttvar: f64,
    rto: SimDuration,
    rtt_probe: Option<(u64, SimTime)>,
    timer_gen: u64,
    // --- results ---
    finished_at: Option<SimTime>,
    retransmits: u64,
}

impl TcpSender {
    /// A sender that will push `total_bytes` to `peer` with the default
    /// MSS.
    pub fn new(peer: Addr, total_bytes: u64) -> Self {
        Self::with_mss(peer, total_bytes, DEFAULT_MSS)
    }

    /// A sender with an explicit MSS.
    ///
    /// # Panics
    ///
    /// Panics if `mss` is zero.
    pub fn with_mss(peer: Addr, total_bytes: u64, mss: usize) -> Self {
        assert!(mss > 0, "mss must be positive");
        let max_window = (220 * mss) as f64; // ≈320 KiB advertised window
        TcpSender {
            peer,
            mss,
            total: total_bytes,
            snd_una: 0,
            snd_nxt: 0,
            cwnd: (10 * mss) as f64,
            // Slow-start straight up to the advertised window; the window
            // cap (not loss) ends the ramp on clean paths.
            ssthresh: max_window,
            max_window,
            dup_acks: 0,
            in_recovery: false,
            recover: 0,
            srtt: None,
            rttvar: 0.0,
            rto: SimDuration::from_millis(1000),
            rtt_probe: None,
            timer_gen: 0,
            finished_at: None,
            retransmits: 0,
        }
    }

    /// Completion time, once all bytes are acknowledged.
    pub fn finished_at(&self) -> Option<SimTime> {
        self.finished_at
    }

    /// Number of retransmitted segments.
    pub fn retransmits(&self) -> u64 {
        self.retransmits
    }

    /// Current congestion window in bytes (for tests/inspection).
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn send_segment(&mut self, ctx: &mut Context<'_>, seq: u64) {
        let len = self.mss.min((self.total - seq) as usize);
        if len == 0 {
            return;
        }
        // Payload content is synthetic zeros; receivers only track counts.
        let seg = encode_segment(KIND_DATA, seq, &vec![0u8; len]);
        ctx.send(self.peer, TCP_PORT, seg);
    }

    fn fill_window(&mut self, ctx: &mut Context<'_>) {
        // Always allow at least one MSS in flight so a collapsed window
        // cannot deadlock the connection; never exceed the advertised
        // window.
        let window = self.cwnd.min(self.max_window);
        let limit = self.snd_una + (window as u64).max(self.mss as u64);
        while self.snd_nxt < self.total && self.snd_nxt < limit {
            let seq = self.snd_nxt;
            self.send_segment(ctx, seq);
            if self.rtt_probe.is_none() {
                self.rtt_probe = Some((seq, ctx.now()));
            }
            self.snd_nxt += self.mss.min((self.total - seq) as usize) as u64;
        }
    }

    fn arm_rto(&mut self, ctx: &mut Context<'_>) {
        self.timer_gen += 1;
        ctx.set_timer(self.rto, self.timer_gen);
    }

    fn update_rtt(&mut self, sample_ms: f64) {
        match self.srtt {
            None => {
                self.srtt = Some(sample_ms);
                self.rttvar = sample_ms / 2.0;
            }
            Some(srtt) => {
                self.rttvar = 0.75 * self.rttvar + 0.25 * (srtt - sample_ms).abs();
                self.srtt = Some(0.875 * srtt + 0.125 * sample_ms);
            }
        }
        let rto_ms = (self.srtt.expect("just set") + 4.0 * self.rttvar).max(200.0);
        self.rto = SimDuration::from_secs_f64(rto_ms / 1000.0);
    }

    fn flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }
}

/// Port used by the TCP baseline.
pub const TCP_PORT: u16 = 5002;

impl NodeBehavior for TcpSender {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.fill_window(ctx);
        self.arm_rto(ctx);
    }

    fn on_datagram(&mut self, ctx: &mut Context<'_>, dgram: Datagram) {
        let Some((kind, ack, _)) = decode_segment(&dgram.payload) else {
            return;
        };
        if kind != KIND_ACK || self.finished_at.is_some() {
            return;
        }
        if ack > self.snd_una {
            // New data acknowledged.
            self.snd_una = ack;
            self.dup_acks = 0;
            if let Some((probe_seq, sent)) = self.rtt_probe {
                if ack > probe_seq {
                    let sample = (ctx.now() - sent).as_millis_f64();
                    self.update_rtt(sample);
                    self.rtt_probe = None;
                }
            }
            if self.in_recovery {
                if ack >= self.recover {
                    self.in_recovery = false;
                    self.cwnd = self.ssthresh;
                } else {
                    // NewReno partial ACK: the next hole is lost too —
                    // retransmit it immediately without leaving recovery.
                    self.retransmits += 1;
                    let seq = self.snd_una;
                    self.send_segment(ctx, seq);
                }
            } else if self.cwnd < self.ssthresh {
                // Slow start.
                self.cwnd += self.mss as f64;
            } else {
                // Congestion avoidance (per-ACK additive increase).
                self.cwnd += (self.mss * self.mss) as f64 / self.cwnd;
            }
            if self.snd_una >= self.total {
                self.finished_at = Some(ctx.now());
                return;
            }
            self.fill_window(ctx);
            self.arm_rto(ctx);
        } else if ack == self.snd_una && self.flight() > 0 {
            self.dup_acks += 1;
            if self.dup_acks == 3 && !self.in_recovery {
                // Fast retransmit + fast recovery.
                self.ssthresh = (self.flight() as f64 / 2.0).max((2 * self.mss) as f64);
                self.cwnd = self.ssthresh + (3 * self.mss) as f64;
                self.in_recovery = true;
                self.recover = self.snd_nxt;
                self.retransmits += 1;
                let seq = self.snd_una;
                self.send_segment(ctx, seq);
            } else if self.in_recovery {
                // Window inflation lets new data out during recovery.
                self.cwnd += self.mss as f64;
                self.fill_window(ctx);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        if token != self.timer_gen || self.finished_at.is_some() {
            return; // stale timer
        }
        if self.flight() == 0 && self.snd_nxt >= self.total {
            return;
        }
        // Retransmission timeout: collapse to one segment and go back to
        // snd_una — everything in flight is presumed lost and will be
        // resent as the window reopens.
        self.ssthresh = (self.flight() as f64 / 2.0).max((2 * self.mss) as f64);
        self.cwnd = self.mss as f64;
        self.in_recovery = false;
        self.dup_acks = 0;
        self.rtt_probe = None; // Karn's rule
        self.retransmits += 1;
        self.snd_nxt = self.snd_una;
        self.fill_window(ctx);
        self.rto = SimDuration::from_secs_f64((self.rto.as_secs_f64() * 2.0).min(60.0));
        self.arm_rto(ctx);
    }
}

/// Cumulative-ACK receiver with out-of-order reassembly.
#[derive(Debug)]
pub struct TcpReceiver {
    rcv_nxt: u64,
    /// Out-of-order segments: start offset -> length.
    ooo: BTreeMap<u64, u64>,
    bytes_received: u64,
    series: ThroughputSeries,
}

impl TcpReceiver {
    /// A receiver binning goodput into `bin`-wide intervals.
    pub fn new(bin: SimDuration) -> Self {
        TcpReceiver {
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            bytes_received: 0,
            series: ThroughputSeries::new(bin),
        }
    }

    /// In-order bytes delivered to the application so far.
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received
    }

    /// Goodput time series.
    pub fn series(&self) -> &ThroughputSeries {
        &self.series
    }
}

impl NodeBehavior for TcpReceiver {
    fn on_datagram(&mut self, ctx: &mut Context<'_>, dgram: Datagram) {
        let Some((kind, seq, payload)) = decode_segment(&dgram.payload) else {
            return;
        };
        if kind != KIND_DATA {
            return;
        }
        let len = payload.len() as u64;
        if seq + len > self.rcv_nxt {
            // Trim any already-delivered prefix, keep the longest segment
            // seen for a given start offset.
            let start = seq.max(self.rcv_nxt);
            let trimmed = len - (start - seq);
            let entry = self.ooo.entry(start).or_insert(0);
            *entry = (*entry).max(trimmed);
            // Advance over any contiguous prefix.
            while let Some((&start, &l)) = self.ooo.first_key_value() {
                if start > self.rcv_nxt {
                    break;
                }
                let end = start + l;
                self.ooo.pop_first();
                if end > self.rcv_nxt {
                    let advanced = end - self.rcv_nxt;
                    self.rcv_nxt = end;
                    self.bytes_received += advanced;
                    self.series.record(ctx.now(), advanced);
                }
            }
        }
        // Always ACK (cumulative).
        let ack = encode_segment(KIND_ACK, self.rcv_nxt, &[]);
        ctx.send(dgram.src, TCP_PORT, ack);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::LossModel;
    use crate::{LinkConfig, SimNodeId, SimTime, Simulator};

    fn transfer(
        bytes: u64,
        bw_bps: f64,
        delay: SimDuration,
        loss: LossModel,
        horizon: SimTime,
    ) -> (Option<SimTime>, u64, u64) {
        let mut sim = Simulator::new(11);
        let s = sim.add_node(
            "snd",
            TcpSender::new(Addr::new(SimNodeId(1), TCP_PORT), bytes),
        );
        let r = sim.add_node("rcv", TcpReceiver::new(SimDuration::from_secs(1)));
        sim.add_link(s, r, LinkConfig::new(bw_bps, delay).with_loss(loss));
        sim.add_link(r, s, LinkConfig::new(bw_bps, delay));
        sim.run_until(horizon);
        let snd = sim.node_as::<TcpSender>(s).unwrap();
        let rcv = sim.node_as::<TcpReceiver>(r).unwrap();
        (snd.finished_at(), rcv.bytes_received(), snd.retransmits())
    }

    #[test]
    fn lossless_transfer_completes_and_delivers_everything() {
        let (done, received, _) = transfer(
            1_000_000,
            10e6,
            SimDuration::from_millis(10),
            LossModel::None,
            SimTime::from_secs(30),
        );
        assert_eq!(received, 1_000_000);
        let done = done.expect("transfer should finish");
        // 1 MB at 10 Mbps is ideally 0.8 s; allow startup overheads.
        assert!(done.as_secs_f64() < 3.0, "took {done}");
    }

    #[test]
    fn throughput_is_bandwidth_bound_not_window_bound_on_short_rtt() {
        let (done, _, _) = transfer(
            2_000_000,
            20e6,
            SimDuration::from_millis(1),
            LossModel::None,
            SimTime::from_secs(30),
        );
        let secs = done.expect("finish").as_secs_f64();
        let rate = 2_000_000.0 * 8.0 / secs;
        assert!(rate > 0.7 * 20e6, "rate {rate}");
    }

    #[test]
    fn loss_triggers_retransmissions_and_still_completes() {
        let (done, received, retx) = transfer(
            300_000,
            10e6,
            SimDuration::from_millis(5),
            LossModel::uniform(0.02),
            SimTime::from_secs(60),
        );
        assert!(done.is_some(), "transfer did not finish");
        assert_eq!(received, 300_000);
        assert!(retx > 0, "expected retransmissions");
    }

    #[test]
    fn high_rtt_slows_throughput() {
        let fast = transfer(
            500_000,
            10e6,
            SimDuration::from_millis(5),
            LossModel::None,
            SimTime::from_secs(120),
        )
        .0
        .expect("finish")
        .as_secs_f64();
        let slow = transfer(
            500_000,
            10e6,
            SimDuration::from_millis(80),
            LossModel::None,
            SimTime::from_secs(120),
        )
        .0
        .expect("finish")
        .as_secs_f64();
        assert!(slow > fast, "slow {slow} fast {fast}");
    }

    #[test]
    fn loss_reduces_tcp_goodput() {
        let clean = transfer(
            1_000_000,
            10e6,
            SimDuration::from_millis(20),
            LossModel::None,
            SimTime::from_secs(200),
        )
        .0
        .expect("finish")
        .as_secs_f64();
        let lossy = transfer(
            1_000_000,
            10e6,
            SimDuration::from_millis(20),
            LossModel::uniform(0.03),
            SimTime::from_secs(200),
        )
        .0
        .expect("finish")
        .as_secs_f64();
        assert!(lossy > clean * 1.3, "lossy {lossy} clean {clean}");
    }
}
