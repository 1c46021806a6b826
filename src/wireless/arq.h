// Reliable delivery on top of the lossy RF link (selective-repeat ARQ).
//
// The raw telemetry path drops whatever the link corrupts; good enough
// for live monitoring, not for study logging that must reconstruct every
// trial (cf. ScrollTest's insistence on trustworthy event streams). This
// layer adds the classic fix:
//
//   device  ArqSender ──frames──▶ RfLink ──▶ ArqReceiver  host
//            ▲                                    │
//            └────────── Ack frames ◀─────────────┘
//
// * 8-bit sequence numbers, a sliding window of `window` unacked frames;
// * per-frame retransmit timers with exponential backoff
//   (initial_timeout · backoff_factor^attempt, capped at max_timeout);
// * a bounded device-side retransmit queue (`queue_capacity`) — the
//   PIC's RAM budget is real, so overload sheds new frames, counted;
// * frames that exhaust `max_attempts` transmissions are dropped and
//   counted rather than wedging the window;
// * the receiver acks every arriving data frame (re-acking duplicates,
//   since the first ack may itself have been lost) and deduplicates via
//   a 64-frame seen-bitmap before delivering upward.
//
// Acks ride the same framing (FrameType::Ack, seq = acked sequence, no
// payload) over whatever reverse channel the caller wires up.
//
// Steady state is allocation-free: each pending frame holds its fixed
// wire image, the retransmit queue grows only to its working depth, and
// a timer's capture (this + packed epoch/seq key) fits std::function's
// small buffer. An ack cancels its frame's timer.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "obs/tracer.h"
#include "sim/event_queue.h"
#include "util/units.h"
#include "wireless/packet.h"

namespace distscroll::wireless {

struct ArqConfig {
  std::size_t window = 8;           // max unacked frames in flight
  std::size_t queue_capacity = 32;  // bounded retransmit queue (device RAM)
  util::Seconds initial_timeout{0.030};
  double backoff_factor = 2.0;
  util::Seconds max_timeout{0.5};
  int max_attempts = 10;  // total transmissions, including the first
};

/// Device-side endpoint: owns the retransmit queue and timers.
class ArqSender {
 public:
  /// Pushes one encoded wire frame at the transport; must be
  /// all-or-nothing and return false when the transport has no room
  /// (UART TX FIFO full). The sender then waits for notify_tx_space().
  /// Must not call back into this sender.
  using WireSink = std::function<bool(std::span<const std::uint8_t>)>;
  /// Invoked when a frame is acked: (seq, delivery latency from first
  /// enqueue to ack, transmissions used).
  using AckCallback = std::function<void(std::uint8_t, double, int)>;
  /// Invoked when a frame is abandoned after max_attempts.
  using DropCallback = std::function<void(std::uint8_t)>;

  ArqSender(ArqConfig config, sim::EventQueue& queue)
      : config_(config), events_(&queue) {}

  void set_wire_sink(WireSink sink) { wire_sink_ = std::move(sink); }
  void set_ack_callback(AckCallback cb) { ack_callback_ = std::move(cb); }
  void set_drop_callback(DropCallback cb) { drop_callback_ = std::move(cb); }
  /// Structured tracing of the retransmit machinery (ArqTx / ArqRetry /
  /// ArqDrop). Null detaches; tracing must never change behaviour.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Queue a frame for reliable delivery. Returns false (and counts the
  /// drop) when the bounded queue is full, and false without queuing a
  /// payload over kMaxPayload. The payload is copied into the frame's
  /// wire image.
  bool send(FrameType type, std::span<const std::uint8_t> payload);

  /// Feed reverse-channel bytes (the host's ack stream).
  void on_ack_byte(std::uint8_t byte);

  /// One already-validated ack for `seq`, for reverse channels that
  /// deliver whole frames (the host ingest link checks each ack image
  /// with parse_wire_frame). Same effect as its bytes via on_ack_byte().
  void on_ack(std::uint8_t seq);

  /// UART backpressure hook: the TX FIFO freed a byte, try flushing.
  void notify_tx_space() { pump(); }

  /// First-enqueue time of a still-pending frame (for latency probes).
  [[nodiscard]] std::optional<double> enqueue_time_s(std::uint8_t seq) const;

  [[nodiscard]] std::size_t queued() const { return queue_.size(); }
  [[nodiscard]] std::size_t in_flight() const;
  /// Active-window frames still waiting for transport room (needs_tx):
  /// non-zero means the transport backpressured and a notify_tx_space()
  /// is owed — the host ingest drain loop uses this to know a device
  /// still has frames to flush.
  [[nodiscard]] std::size_t unsent() const;

  // Counters for LinkStats.
  [[nodiscard]] std::uint64_t frames_accepted() const { return frames_accepted_; }
  [[nodiscard]] std::uint64_t transmissions() const { return transmissions_; }
  [[nodiscard]] std::uint64_t retransmissions() const { return retransmissions_; }
  [[nodiscard]] std::uint64_t acks_received() const { return acks_received_; }
  [[nodiscard]] std::uint64_t duplicate_acks() const { return duplicate_acks_; }
  [[nodiscard]] std::uint64_t drops_queue_full() const { return drops_queue_full_; }
  [[nodiscard]] std::uint64_t drops_retry_exhausted() const { return drops_retry_exhausted_; }

 private:
  struct Pending {
    std::array<std::uint8_t, kMaxEncodedFrame> wire{};  // encoded once, retransmitted verbatim
    std::uint8_t seq = 0;
    std::uint8_t len = 0;    // bytes of `wire` in use
    double enqueued_at_s = 0.0;
    double timeout_s = 0.0;  // current backoff value
    int attempts = 0;        // transmissions so far
    bool needs_tx = true;    // not yet (re)transmitted
    std::uint64_t epoch = 0; // stale-timer guard
    sim::EventQueue::Handle timer = sim::EventQueue::kInvalidHandle;  // armed retransmit timer
  };

  void pump();
  void arm_timer(Pending& pending);
  void on_timeout(std::uint64_t key);  // key = epoch << 8 | seq

  ArqConfig config_;
  sim::EventQueue* events_;
  obs::Tracer* tracer_ = nullptr;
  WireSink wire_sink_;
  AckCallback ack_callback_;
  DropCallback drop_callback_;
  // Built by the first on_ack_byte(): senders whose reverse channel
  // delivers whole acks (on_ack) never pay for the byte-stream decoder.
  std::unique_ptr<FrameDecoder> ack_decoder_;
  // Seq order; first `window` entries are active. Not reserved up front:
  // it grows to the working depth, which under normal load is far below
  // queue_capacity.
  std::vector<Pending> queue_;
  std::uint8_t next_seq_ = 0;
  std::uint64_t next_epoch_ = 1;
  std::uint64_t frames_accepted_ = 0;
  std::uint64_t transmissions_ = 0;
  std::uint64_t retransmissions_ = 0;
  std::uint64_t acks_received_ = 0;
  std::uint64_t duplicate_acks_ = 0;
  std::uint64_t drops_queue_full_ = 0;
  std::uint64_t drops_retry_exhausted_ = 0;
};

/// Host-side endpoint: decodes, deduplicates, acks, delivers.
class ArqReceiver {
 public:
  using FrameSink = std::function<void(const Frame&)>;
  using WireSink = std::function<bool(std::span<const std::uint8_t>)>;

  void set_frame_sink(FrameSink sink) { frame_sink_ = std::move(sink); }
  void set_ack_sink(WireSink sink) { ack_sink_ = std::move(sink); }
  /// Structured tracing of delivered frames (ArqRx). Null detaches.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Forward-channel bytes off the RF link.
  void on_byte(std::uint8_t byte);

  [[nodiscard]] const FrameDecoder& decoder() const { return decoder_; }
  [[nodiscard]] std::uint64_t frames_delivered() const { return frames_delivered_; }
  [[nodiscard]] std::uint64_t duplicates_discarded() const { return duplicates_discarded_; }
  [[nodiscard]] std::uint64_t acks_sent() const { return acks_sent_; }
  [[nodiscard]] std::uint64_t acks_backpressured() const { return acks_backpressured_; }

 private:
  void on_frame(const Frame& frame);
  bool accept_seq(std::uint8_t seq);  // sliding-bitmap dedupe

  FrameDecoder decoder_;
  FrameSink frame_sink_;
  WireSink ack_sink_;
  obs::Tracer* tracer_ = nullptr;
  bool any_received_ = false;
  std::uint8_t highest_seq_ = 0;
  std::uint64_t seen_mask_ = 0;  // bit i set = (highest_seq_ - i) seen
  std::uint64_t frames_delivered_ = 0;
  std::uint64_t duplicates_discarded_ = 0;
  std::uint64_t acks_sent_ = 0;
  std::uint64_t acks_backpressured_ = 0;
};

}  // namespace distscroll::wireless
