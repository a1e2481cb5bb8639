#include "obs/event_log.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string_view>

namespace mobi::obs {

namespace {

// Bytes each sink flush formats before writing them out: large enough
// that fwrite calls are rare, small enough to stay in cache.
constexpr std::size_t kFlushBytes = std::size_t(1) << 16;

std::string_view kind_text(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kArrival: return "arrival";
    case EventKind::kCacheHit: return "cache_hit";
    case EventKind::kCacheMiss: return "cache_miss";
    case EventKind::kDegradedServe: return "degraded_serve";
    case EventKind::kDelivery: return "delivery";
    case EventKind::kFetchSelected: return "fetch_selected";
    case EventKind::kFetchDone: return "fetch_done";
    case EventKind::kFetchFailed: return "fetch_failed";
    case EventKind::kRetryAttempt: return "retry_attempt";
    case EventKind::kRetryDrop: return "retry_drop";
    case EventKind::kDownlinkDelivered: return "downlink_delivered";
    case EventKind::kDownlinkDrop: return "downlink_drop";
    case EventKind::kNetBatch: return "net_batch";
    case EventKind::kHandoff: return "handoff";
    case EventKind::kSloAlert: return "slo_alert";
  }
  return "?";
}

char* put(char* out, std::string_view text) noexcept {
  std::memcpy(out, text.data(), text.size());
  return out + text.size();
}

// Decimal integers fit in 20 chars (the sign of INT64_MIN included).
template <typename Int>
char* put_int(char* out, Int value) noexcept {
  return std::to_chars(out, out + 20, value).ptr;
}

// `{"t":<tick>,"ev":"`, the start every line of one tick shares; at most
// 5 + 20 + 7 chars.
constexpr std::size_t kMaxTickPrefix = 32;

char* put_tick_prefix(char* out, sim::Tick tick) noexcept {
  out = put(out, "{\"t\":");
  out = put_int(out, tick);
  return put(out, ",\"ev\":\"");
}

// The rest of the line after its tick prefix.
char* put_event_rest(char* out, const RequestEvent& event) noexcept {
  out = put(out, kind_text(event.kind));
  out = put(out, "\",\"obj\":");
  out = put_int(out, event.object);
  if (event.client != RequestEvent::kNoClient) {
    out = put(out, ",\"client\":");
    out = put_int(out, event.client);
  }
  if (event.attempt != 0) {
    out = put(out, ",\"k\":");
    out = put_int(out, event.attempt);
  }
  if (event.value != 0.0) {
    out = put(out, ",\"v\":");
    out = json::format_number(out, event.value);
  }
  return put(out, "}\n");
}

}  // namespace

char* format_event_jsonl(char* out, const RequestEvent& event) noexcept {
  return put_event_rest(put_tick_prefix(out, event.tick), event);
}

void append_event_jsonl(std::string& out, const RequestEvent& event) {
  char line[kMaxEventJsonl];
  out.append(line, format_event_jsonl(line, event));
}

// ---------------------------------------------------------------------------
// JsonlTraceSink.

JsonlTraceSink::JsonlTraceSink(const std::string& path)
    : JsonlTraceSink(path, Config{}) {}

JsonlTraceSink::JsonlTraceSink(const std::string& path, const Config& config)
    : path_(path), background_(config.background_flush),
      capacity_(config.buffer_events) {
  if (capacity_ == 0) {
    throw std::invalid_argument("JsonlTraceSink: buffer_events must be > 0");
  }
  file_ = std::fopen(path_.c_str(), "wb");
  if (!file_) {
    throw std::runtime_error("JsonlTraceSink: cannot open " + path_);
  }
  active_.reserve(capacity_);
  pending_.reserve(capacity_);
  // A half never formats to more than capacity_ longest lines.
  bytes_.resize(std::min(kFlushBytes, capacity_ * kMaxEventJsonl));
  const std::string header =
      "{\"schema\":\"mobicache.trace.v1\",\"streamed\":true}\n";
  ok_ = std::fwrite(header.data(), 1, header.size(), file_) == header.size();
  if (background_) {
    flusher_ = std::thread([this] { flusher_loop(); });
  }
}

JsonlTraceSink::~JsonlTraceSink() { close(); }

void JsonlTraceSink::write(const RequestEvent& event) noexcept {
  ++streamed_;
  if (closed_) return;
  active_.push_back(event);  // reserved: no allocation until a swap
  if (active_.size() >= capacity_) swap_and_dispatch();
}

void JsonlTraceSink::swap_and_dispatch() {
  if (!background_) {
    flush_buffer(active_);
    return;
  }
  std::unique_lock lock(mutex_);
  if (pending_full_) {
    // The flusher still owns the other half: the producer runs ahead of
    // the disk. Stall (counted — `flush_blocks` is the backpressure
    // signal) rather than allocate a third buffer.
    ++flush_blocks_;
    pending_done_.wait(lock, [this] { return !pending_full_; });
  }
  std::swap(active_, pending_);
  pending_full_ = true;
  pending_ready_.notify_one();
}

void JsonlTraceSink::flush_buffer(std::vector<RequestEvent>& buffer) {
  char* const first = bytes_.data();
  char* const last = first + bytes_.size();
  char* out = first;
  bool written = true;
  const auto write_out = [&] {
    const std::size_t size = std::size_t(out - first);
    written = written && std::fwrite(first, 1, size, file_) == size;
    out = first;
  };
  // Lines of one tick share their prefix: format it once per run of
  // same-tick events and copy it into every line of the run. The copy is
  // a fixed kMaxTickPrefix bytes (a line has kMaxEventJsonl of room), and
  // the rest of the line overwrites its tail.
  char prefix[kMaxTickPrefix] = {};
  std::size_t prefix_size = 0;  // 0: no prefix formatted yet
  sim::Tick prefix_tick = 0;
  for (const RequestEvent& event : buffer) {
    if (std::size_t(last - out) < kMaxEventJsonl) write_out();
    if (prefix_size == 0 || event.tick != prefix_tick) {
      prefix_tick = event.tick;
      prefix_size = std::size_t(put_tick_prefix(prefix, prefix_tick) - prefix);
    }
    std::memcpy(out, prefix, kMaxTickPrefix);
    out = put_event_rest(out + prefix_size, event);
  }
  write_out();
  // Only events whose bytes reached the file count as flushed; stdio
  // reports a full or failing device at fflush, not at fwrite.
  if (written && std::fflush(file_) == 0) {
    flushed_.fetch_add(buffer.size(), std::memory_order_relaxed);
  } else {
    ok_ = false;
  }
  flushes_.fetch_add(1, std::memory_order_relaxed);
  buffer.clear();
}

void JsonlTraceSink::flusher_loop() {
  for (;;) {
    std::unique_lock lock(mutex_);
    pending_ready_.wait(lock, [this] { return pending_full_ || stopping_; });
    if (!pending_full_) return;  // stopping and drained
    // Serialize + write outside the lock: the producer may keep filling
    // (and even swap-wait on pending_done_) meanwhile.
    std::vector<RequestEvent>& buffer = pending_;
    lock.unlock();
    flush_buffer(buffer);
    lock.lock();
    pending_full_ = false;
    pending_done_.notify_one();
  }
}

void JsonlTraceSink::flush() {
  if (closed_) return;
  if (background_) {
    // Wait out any in-flight half, then drain the active one inline.
    std::unique_lock lock(mutex_);
    pending_done_.wait(lock, [this] { return !pending_full_; });
  }
  flush_buffer(active_);
}

void JsonlTraceSink::close() {
  if (closed_) return;
  flush();
  if (background_) {
    {
      std::lock_guard lock(mutex_);
      stopping_ = true;
      pending_ready_.notify_one();
    }
    flusher_.join();
  }
  closed_ = true;
  if (file_) {
    std::string footer = "{\"streamed_end\":true,\"events\":";
    footer += std::to_string(streamed_);
    footer += ",\"flushes\":";
    footer += std::to_string(flushes_.load(std::memory_order_relaxed));
    footer += ",\"flush_blocks\":";
    footer += std::to_string(flush_blocks_);
    footer += "}\n";
    const bool footer_written =
        std::fwrite(footer.data(), 1, footer.size(), file_) == footer.size();
    if (std::fclose(file_) != 0 || !footer_written) {
      ok_ = false;
    }
    file_ = nullptr;
  }
}

const char* event_kind_name(EventKind kind) noexcept {
  return kind_text(kind).data();
}

EventLog::EventLog(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("EventLog: capacity must be > 0");
  }
  events_.reserve(capacity);
}

bool EventLog::record(const RequestEvent& event) noexcept {
  // Dual-write: the sink sees every event, including the ones the
  // bounded buffer drops, and the buffer accounting below is identical
  // with or without a sink attached.
  if (sink_) sink_->write(event);
  if (events_.size() >= capacity_) {
    ++dropped_;
    return false;
  }
  events_.push_back(event);
  return true;
}

std::uint64_t EventLog::count(EventKind kind) const noexcept {
  std::uint64_t n = 0;
  for (const RequestEvent& event : events_) {
    if (event.kind == kind) ++n;
  }
  return n;
}

void EventLog::clear() noexcept {
  events_.clear();
  dropped_ = 0;
}

std::string EventLog::to_jsonl() const {
  std::ostringstream header;
  header << "{\"schema\":\"mobicache.trace.v1\",\"events\":" << events_.size()
         << ",\"dropped\":" << dropped_ << "}\n";
  std::string out = header.str();
  for (const RequestEvent& event : events_) {
    append_event_jsonl(out, event);
  }
  return out;
}

RequestTracer::RequestTracer() : RequestTracer(Config{}) {}

RequestTracer::RequestTracer(const Config& config)
    : sample_every_(config.sample_every), log_(config.event_capacity) {
  if (config.sample_every == 0) {
    throw std::invalid_argument("RequestTracer: sample_every must be >= 1");
  }
}

void RequestTracer::register_histograms(MetricsRegistry* registry,
                                        const std::string& prefix) {
  inst_ = {};
  if (!registry) return;
  // Tick-valued histograms share one shape: most lifecycles resolve
  // within a few ticks, the capped exponential backoff (2^10 max) sets
  // the interesting tail, and overflow keeps anything beyond it visible.
  inst_.ticks_to_serve =
      &registry->register_histogram(prefix + ".ticks_to_serve", 0.0, 64.0, 64);
  inst_.retry_delay =
      &registry->register_histogram(prefix + ".retry_delay", 0.0, 64.0, 64);
  inst_.queue_wait =
      &registry->register_histogram(prefix + ".queue_wait", 0.0, 32.0, 32);
  inst_.served_recency_gap = &registry->register_histogram(
      prefix + ".served_recency_gap", 0.0, 1.0, 20);
}

void RequestTracer::emit_serve(std::uint32_t object, std::uint32_t client,
                               bool cached, bool degraded, double recency,
                               double score) noexcept {
  if (cached) {
    emit(EventKind::kCacheHit, object, client, 0, recency);
  } else {
    emit(EventKind::kCacheMiss, object, client, 0, 0.0);
  }
  if (degraded) emit(EventKind::kDegradedServe, object, client, 0, recency);
  emit(EventKind::kDelivery, object, client, 0, score);
}

void RequestTracer::on_fetch_selected(std::uint32_t object) noexcept {
  emit(EventKind::kFetchSelected, object, RequestEvent::kNoClient, 0, 0.0);
}

void RequestTracer::on_fetch_done(std::uint32_t object,
                                  sim::Tick ticks_to_serve) noexcept {
  if (inst_.ticks_to_serve) {
    inst_.ticks_to_serve->observe(double(ticks_to_serve));
  }
  emit(EventKind::kFetchDone, object, RequestEvent::kNoClient, 0,
       double(ticks_to_serve));
}

void RequestTracer::on_fetch_failed(std::uint32_t object,
                                    std::uint32_t attempt) noexcept {
  emit(EventKind::kFetchFailed, object, RequestEvent::kNoClient, attempt, 0.0);
}

void RequestTracer::on_retry_attempt(std::uint32_t object,
                                     std::uint32_t attempt,
                                     sim::Tick waited) noexcept {
  if (inst_.retry_delay) inst_.retry_delay->observe(double(waited));
  emit(EventKind::kRetryAttempt, object, RequestEvent::kNoClient, attempt,
       double(waited));
}

void RequestTracer::on_retry_drop(std::uint32_t object,
                                  std::uint32_t attempts) noexcept {
  emit(EventKind::kRetryDrop, object, RequestEvent::kNoClient, attempts, 0.0);
}

void RequestTracer::on_downlink_drop(double units) noexcept {
  emit(EventKind::kDownlinkDrop, 0, RequestEvent::kNoClient, 0, units);
}

void RequestTracer::on_net_batch(std::size_t transfers,
                                 double completion) noexcept {
  emit(EventKind::kNetBatch, 0, RequestEvent::kNoClient,
       std::uint32_t(transfers), completion);
}

void RequestTracer::on_handoff(std::uint32_t client, std::uint32_t to_cell,
                               double migrated_units) noexcept {
  emit(EventKind::kHandoff, 0, client, to_cell, migrated_units);
}

void export_trace_metrics(MetricsRegistry& registry,
                          const RequestTracer& tracer,
                          const std::string& prefix) {
  registry.register_counter(prefix + ".events").add(tracer.log().size());
  registry.register_counter(prefix + ".dropped").add(tracer.log().dropped());
  registry.register_counter(prefix + ".arrivals").add(tracer.arrivals());
  const EventSink* sink = tracer.log().sink();
  registry.register_counter(prefix + ".streamed_events")
      .add(sink ? sink->streamed_events() : 0);
  registry.register_counter(prefix + ".flushed_events")
      .add(sink ? sink->flushed_events() : 0);
  registry.register_counter(prefix + ".flush_blocks")
      .add(sink ? sink->flush_blocks() : 0);
}

}  // namespace mobi::obs
