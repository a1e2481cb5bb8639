// Request-lifecycle tracing in *simulation time*: structured events per
// request (arrival -> cache-hit / degraded-serve / fetch-selected /
// retry[k] / drop / delivery) recorded into a pre-sized EventLog, plus
// sim-time latency histograms (ticks-to-serve, retry delay, downlink
// queue wait, served-recency gap) derived on the fly.
//
// Unlike obs::PhaseProfiler's wall-clock spans, everything here is
// measured in ticks and recency units, so traces are bit-reproducible.
// The same contracts as the metrics layer apply: components hold a
// null-by-default RequestTracer pointer (the disabled path is one
// branch), observation never feeds back into simulation state, and the
// steady state allocates nothing — the event buffer is reserved up
// front and a full log *drops* (with a counter) rather than grows.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/tick.hpp"

namespace mobi::obs {

/// Lifecycle stages. Request-scoped kinds (arrival/hit/miss/degraded/
/// delivery, and the downlink delivery of the chunk a request queued) are
/// subject to the tracer's 1-in-N sampling knob. Object-scoped kinds
/// (fetch/retry) and the link's batch and drop events are recorded
/// always: a fetch is one per selected object, a fixed-network batch one
/// per tick, and a drop is a failure, which sampling must not hide.
enum class EventKind : std::uint8_t {
  kArrival,            // request entered the serve loop
  kCacheHit,           // served from cache; value = copy recency
  kCacheMiss,          // no cached copy at serve time
  kDegradedServe,      // the refresh this request wanted failed this tick
  kDelivery,           // response handed to the downlink; value = score
  kFetchSelected,      // policy picked the object for remote fetch
  kFetchDone,          // remote fetch succeeded; value = ticks-to-serve
  kFetchFailed,        // injected/legacy fault blocked the fetch
  kRetryAttempt,       // backoff expired, attempt made; value = waited ticks
  kRetryDrop,          // retry budget exhausted, object dropped
  kDownlinkDelivered,  // chunk fully delivered; obj/client = the sampled
                       // request that queued it, value = queue-wait ticks
  kDownlinkDrop,       // chunk dropped mid-flight; value = dropped units
  kNetBatch,           // fixed-network batch; value = completion time
  kHandoff,            // client crossed a cell boundary; attempt = dest
                       // cell, value = migrated cache units
  kSloAlert,           // SLO burn-rate alert fired; obj = window ordinal,
                       // attempt = objective index, value = fast burn rate
};

const char* event_kind_name(EventKind kind) noexcept;

/// One structured lifecycle event. POD on purpose: recording is a bounds
/// check plus a copy into a reserved buffer.
struct RequestEvent {
  sim::Tick tick = 0;
  EventKind kind = EventKind::kArrival;
  std::uint32_t attempt = 0;  // retry ordinal / batch size, kind-specific
  std::uint32_t object = 0;
  std::uint32_t client = kNoClient;
  double value = 0.0;  // kind-specific payload (see EventKind comments)

  static constexpr std::uint32_t kNoClient = 0xffffffffu;
};

/// Longest event line, newline included: every field at its widest.
///   {"t":-9223372036854775808,"ev":"downlink_delivered","obj":4294967295,
///    "client":4294967294,"k":4294967295,"v":-2.2250738585072014e-308}
inline constexpr std::size_t kMaxEventJsonl = 134;

/// Writes one compact JSONL object for `event` (including the trailing
/// newline) — the body-line format of `mobicache.trace.v1` — into `out`,
/// which must have room for kMaxEventJsonl chars; returns the end of the
/// line. The one writer behind EventLog::to_jsonl and the streaming
/// sinks, so a streamed trace's event lines are byte-identical to the
/// buffered export's.
char* format_event_jsonl(char* out, const RequestEvent& event) noexcept;
/// format_event_jsonl appended to `out`.
void append_event_jsonl(std::string& out, const RequestEvent& event);

/// Where streamed trace events go. Implementations must tolerate write()
/// from exactly one producer thread (the owning simulation); flushing
/// may happen on a background thread internal to the sink.
class EventSink {
 public:
  virtual ~EventSink() = default;

  /// Accepts one event. Hot path: must not allocate in the steady state
  /// (buffers reach a high-water mark, then are reused).
  virtual void write(const RequestEvent& event) noexcept = 0;
  /// Blocks until everything written so far is durably emitted.
  virtual void flush() = 0;

  /// Events accepted by write().
  virtual std::uint64_t streamed_events() const noexcept = 0;
  /// Events serialized and emitted so far (== streamed_events() after a
  /// flush). Default 0 for sinks with no internal buffering.
  virtual std::uint64_t flushed_events() const noexcept { return 0; }
  /// Times the producer stalled waiting for an in-flight flush.
  virtual std::uint64_t flush_blocks() const noexcept { return 0; }
};

/// Streams events to a JSONL file through a reserved double buffer:
/// write() copies the event into the active half (no allocation); when a
/// half fills it is handed to the flusher — a background thread by
/// default, or flushed inline when `background_flush` is off (the
/// per-shard sinks of a multi-cell run use inline mode so a thousand
/// cells do not spawn a thousand flusher threads). The flusher formats
/// lines straight into a fixed byte buffer and writes it out whenever
/// less than one longest line of room is left, so the steady state
/// allocates nothing.
///
/// File format (`mobicache.trace.v1` streamed framing): a header line
/// {"schema":"mobicache.trace.v1","streamed":true}, one event line per
/// write (byte-identical to EventLog::to_jsonl body lines), and a footer
/// {"streamed_end":true,"events":N,"flushes":K,"flush_blocks":B} written
/// by close(). Totals live in the footer because a stream cannot know
/// them up front.
class JsonlTraceSink final : public EventSink {
 public:
  struct Config {
    std::size_t buffer_events = 1 << 13;  // capacity of each half
    bool background_flush = true;
  };

  explicit JsonlTraceSink(const std::string& path);  // default Config
  JsonlTraceSink(const std::string& path, const Config& config);
  ~JsonlTraceSink() override;  // closes (flushing everything pending)

  void write(const RequestEvent& event) noexcept override;
  void flush() override;
  /// Flush + footer + fclose; idempotent. write() after close is a
  /// counted no-op (streamed_events still advances; nothing is emitted).
  void close();

  const std::string& path() const noexcept { return path_; }
  /// False once any write, flush or close of the file has failed.
  bool ok() const noexcept { return ok_; }
  std::uint64_t streamed_events() const noexcept override {
    return streamed_;
  }
  std::uint64_t flushed_events() const noexcept override {
    return flushed_.load(std::memory_order_relaxed);
  }
  std::uint64_t flush_blocks() const noexcept override {
    return flush_blocks_;
  }
  std::uint64_t flushes() const noexcept {
    return flushes_.load(std::memory_order_relaxed);
  }

 private:
  void swap_and_dispatch();                      // producer side
  void flush_buffer(std::vector<RequestEvent>& buffer);  // flusher side
  void flusher_loop();

  std::string path_;
  std::FILE* file_ = nullptr;
  std::atomic<bool> ok_{true};  // cleared by whichever thread hits an error
  bool closed_ = false;
  bool background_;

  std::vector<RequestEvent> active_;
  std::vector<RequestEvent> pending_;
  std::size_t capacity_;
  std::vector<char> bytes_;  // fixed-size line buffer (flusher side)

  std::uint64_t streamed_ = 0;      // producer thread only
  std::uint64_t flush_blocks_ = 0;  // producer thread only
  std::atomic<std::uint64_t> flushed_{0};
  std::atomic<std::uint64_t> flushes_{0};

  // Background mode: the producer hands `pending_` to the flusher under
  // `mutex_`; `pending_ready_` signals work, `pending_done_` signals the
  // buffer was drained and may be reused.
  std::mutex mutex_;
  std::condition_variable pending_ready_;
  std::condition_variable pending_done_;
  bool pending_full_ = false;
  bool stopping_ = false;
  std::thread flusher_;
};

/// Bounded, pre-sized event buffer. `record` never allocates: the buffer
/// is reserved to `capacity` at construction and events past capacity are
/// counted as dropped instead of stored — long soaks stay zero-alloc and
/// the drop counter makes the truncation visible.
///
/// With a EventSink attached (`set_sink`), every recorded event is
/// *also* streamed to the sink — including the ones the bounded buffer
/// drops — so the trace on disk is complete however small the in-memory
/// buffer, and trace capacity no longer bounds the horizon. The null
/// sink (default) is exactly the historical drop-with-count behavior,
/// and the in-memory accounting (size/dropped/count) is bit-identical
/// whether or not a sink is attached.
class EventLog {
 public:
  explicit EventLog(std::size_t capacity = 1 << 16);

  /// Returns false (and counts a drop) when the log is full. A drop
  /// only affects the in-memory buffer: an attached sink still receives
  /// the event.
  bool record(const RequestEvent& event) noexcept;

  /// Attaches (or detaches, with nullptr) a streaming sink. The caller
  /// owns the sink and must keep it alive while attached.
  void set_sink(EventSink* sink) noexcept { sink_ = sink; }
  EventSink* sink() const noexcept { return sink_; }

  std::size_t size() const noexcept { return events_.size(); }
  std::size_t capacity() const noexcept { return capacity_; }
  std::uint64_t dropped() const noexcept { return dropped_; }
  const std::vector<RequestEvent>& events() const noexcept { return events_; }
  /// Events recorded with this kind (linear scan; tests/diagnostics).
  std::uint64_t count(EventKind kind) const noexcept;
  /// Keeps capacity, clears events and the drop counter.
  void clear() noexcept;

  /// JSONL span export, schema `mobicache.trace.v1`: a header line
  /// {"schema":"mobicache.trace.v1","events":N,"dropped":D} followed by
  /// one compact object per event:
  ///   {"t":<tick>,"ev":"<kind>","obj":<id>,"client":<id|absent>,
  ///    "k":<attempt|absent>,"v":<value|absent>}
  std::string to_jsonl() const;

 private:
  std::size_t capacity_;
  std::uint64_t dropped_ = 0;
  std::vector<RequestEvent> events_;
  EventSink* sink_ = nullptr;
};

/// Emission facade the instrumented components (BaseStation, downlink,
/// fixed network, retry path) call into. Owns the EventLog; the sim-time
/// latency histograms live in an attached MetricsRegistry (null default,
/// same discipline as set_metrics) so they export through the existing
/// SeriesRecorder and WindowAggregator paths.
///
/// Sampling is deterministic, not random: request-scoped events are kept
/// for every `sample_every`-th arrival (a plain counter), so a traced
/// re-run of the same seed samples the same requests — and the knob
/// consumes no RNG, keeping traced runs bit-identical to untraced ones.
class RequestTracer {
 public:
  struct Config {
    std::size_t sample_every = 1;  // 1 = every request; N = 1-in-N
    std::size_t event_capacity = 1 << 16;
  };

  RequestTracer();  // default Config: sample every arrival, 64Ki events
  explicit RequestTracer(const Config& config);

  /// Registers the `<prefix>.*` histograms (ticks_to_serve, retry_delay,
  /// queue_wait, served_recency_gap) in `registry` and observes into them
  /// from then on; nullptr detaches (events still go to the log).
  void register_histograms(MetricsRegistry* registry,
                           const std::string& prefix = "lat");

  EventLog& log() noexcept { return log_; }
  const EventLog& log() const noexcept { return log_; }
  std::size_t sample_every() const noexcept { return sample_every_; }
  /// Arrivals seen (sampled or not).
  std::uint64_t arrivals() const noexcept { return arrivals_; }
  std::uint64_t sampled_arrivals() const noexcept { return sampled_; }

  /// Components do not know the tick; the owning BaseStation stamps it
  /// once per batch and every event inherits it.
  void begin_tick(sim::Tick now) noexcept { now_ = now; }
  sim::Tick now() const noexcept { return now_; }

  // --- request-scoped (serve loop); pass on_arrival's decision through.
  // The unsampled paths are inline and record nothing, so a 1-in-N
  // tracer costs N-1 of every N requests a counter and the histograms.

  /// Samples arrivals 0, N, 2N, ... of the run by counting down to the
  /// next one, with no division per request.
  bool on_arrival(std::uint32_t object, std::uint32_t client) noexcept {
    ++arrivals_;
    if (until_sample_ != 0) {
      --until_sample_;
      return false;
    }
    until_sample_ = sample_every_ - 1;
    ++sampled_;
    emit(EventKind::kArrival, object, client, 0, 0.0);
    return true;
  }
  void on_serve(bool sampled, std::uint32_t object, std::uint32_t client,
                bool cached, bool degraded, double recency, double target,
                double score) noexcept {
    if (inst_.served_recency_gap) {
      // How far the served copy fell short of what the client asked for;
      // 0 = the target was met (possibly exceeded).
      inst_.served_recency_gap->observe(target > recency ? target - recency
                                                         : 0.0);
    }
    if (sampled) emit_serve(object, client, cached, degraded, recency, score);
  }

  // --- object-scoped (fetch + retry path); always recorded.
  void on_fetch_selected(std::uint32_t object) noexcept;
  void on_fetch_done(std::uint32_t object, sim::Tick ticks_to_serve) noexcept;
  void on_fetch_failed(std::uint32_t object, std::uint32_t attempt) noexcept;
  void on_retry_attempt(std::uint32_t object, std::uint32_t attempt,
                        sim::Tick waited) noexcept;
  void on_retry_drop(std::uint32_t object, std::uint32_t attempts) noexcept;

  // --- link-scoped. A delivered chunk carries the request that queued
  // it: every delivery observes the queue wait, and only a sampled
  // request's delivery is recorded. Drops are recorded for every chunk.
  void on_downlink_delivered(bool sampled, std::uint32_t object,
                             std::uint32_t client,
                             sim::Tick queue_wait) noexcept {
    if (inst_.queue_wait) inst_.queue_wait->observe(double(queue_wait));
    if (sampled) {
      emit(EventKind::kDownlinkDelivered, object, client, 0,
           double(queue_wait));
    }
  }
  void on_downlink_drop(double units) noexcept;
  void on_net_batch(std::size_t transfers, double completion) noexcept;

  // --- mobility-scoped; always recorded (a crossing is as rare as a
  // fetch). `to_cell` rides in the attempt field, migrated cache units in
  // the value, so the POD event layout is unchanged.
  void on_handoff(std::uint32_t client, std::uint32_t to_cell,
                  double migrated_units) noexcept;

 private:
  void emit(EventKind kind, std::uint32_t object, std::uint32_t client,
            std::uint32_t attempt, double value) noexcept {
    log_.record(RequestEvent{now_, kind, attempt, object, client, value});
  }
  /// A sampled serve's hit-or-miss, degraded and delivery events.
  void emit_serve(std::uint32_t object, std::uint32_t client, bool cached,
                  bool degraded, double recency, double score) noexcept;

  std::size_t sample_every_;
  EventLog log_;
  sim::Tick now_ = 0;
  std::uint64_t arrivals_ = 0;
  std::uint64_t sampled_ = 0;
  std::size_t until_sample_ = 0;  // unsampled arrivals before the next one

  struct Instruments {
    FixedHistogram* ticks_to_serve = nullptr;
    FixedHistogram* retry_delay = nullptr;
    FixedHistogram* queue_wait = nullptr;
    FixedHistogram* served_recency_gap = nullptr;
  };
  Instruments inst_;
};

/// Registers `<prefix>.{events,dropped,arrivals,streamed_events,
/// flushed_events,flush_blocks}` counters in `registry` and sets them
/// from the tracer's current log/sink state, so soak and fleet runs
/// expose trace truncation and flush behavior through the ordinary
/// metrics exports instead of requiring JSONL header parsing. Sinkless
/// tracers report zero for the sink counters. Strict-registry contract:
/// call at most once per (registry, prefix).
void export_trace_metrics(MetricsRegistry& registry,
                          const RequestTracer& tracer,
                          const std::string& prefix = "trace");

}  // namespace mobi::obs
