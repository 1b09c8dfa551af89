#include "rainshine/net/server.hpp"

#include <cinttypes>
#include <cstdio>
#include <exception>
#include <limits>
#include <sstream>
#include <utility>

#include "rainshine/obs/export.hpp"
#include "rainshine/serve/service.hpp"
#include "rainshine/table/csv.hpp"
#include "rainshine/util/check.hpp"
#include "rainshine/util/strings.hpp"

namespace rainshine::net {
namespace {

/// Shortest round-trippable rendering of a prediction (matches the CSV
/// writer's stance: %.17g always round-trips an IEEE double).
std::string format_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Minimal JSON string escaping for model names and error messages.
std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

HttpResponse text_response(int status, std::string body) {
  HttpResponse resp;
  resp.status = status;
  resp.body = std::move(body);
  if (!resp.body.empty() && resp.body.back() != '\n') resp.body += '\n';
  return resp;
}

HttpResponse method_not_allowed(const char* allow) {
  HttpResponse resp = text_response(405, "method not allowed");
  resp.headers.push_back({"Allow", allow});
  return resp;
}

}  // namespace

HttpServer::HttpServer(std::shared_ptr<serve::PredictionService> service,
                       serve::ModelRegistry* registry, ServerConfig config,
                       const stream::SeriesStore* series)
    : service_(std::move(service)),
      registry_(registry),
      series_(series),
      config_(std::move(config)),
      listener_(config_.host, config_.port,
                static_cast<int>(config_.max_pending_connections)) {
  util::require(service_ != nullptr, "HttpServer: service must not be null");
  util::require(config_.num_workers > 0, "HttpServer: need at least one worker");
  util::require(config_.max_pending_connections > 0,
                "HttpServer: need a nonzero connection queue");

  auto& reg = obs::registry();
  obs_.accepted = &reg.counter("net.connections_accepted");
  obs_.shed = &reg.counter("net.connections_shed");
  obs_.requests = &reg.counter("net.requests_total");
  obs_.responses_2xx = &reg.counter("net.responses_2xx");
  obs_.responses_4xx = &reg.counter("net.responses_4xx");
  obs_.responses_5xx = &reg.counter("net.responses_5xx");
  obs_.parse_errors = &reg.counter("net.parse_errors");
  obs_.deadline_exceeded = &reg.counter("net.deadline_exceeded");
  obs_.io_errors = &reg.counter("net.io_errors");
  obs_.queue_depth = &reg.gauge("net.queue_depth");
  obs_.draining = &reg.gauge("net.draining");
  obs_.request_us = &reg.histogram("net.request_us");
  obs_.draining->set(0.0);

  workers_.reserve(config_.num_workers);
  for (std::size_t i = 0; i < config_.num_workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  acceptor_ = std::thread([this] { accept_loop(); });
}

HttpServer::~HttpServer() {
  request_drain();
  wait();
}

void HttpServer::swap_service(std::shared_ptr<serve::PredictionService> next) {
  util::require(next != nullptr, "swap_service: service must not be null");
  std::shared_ptr<serve::PredictionService> old;
  {
    const std::lock_guard<std::mutex> lock(service_mutex_);
    old = std::exchange(service_, std::move(next));
  }
  // `old` dies here unless in-flight requests still hold it; its destructor
  // drains admitted work, so nothing accepted before the swap is dropped.
}

std::shared_ptr<serve::PredictionService> HttpServer::service() const {
  const std::lock_guard<std::mutex> lock(service_mutex_);
  return service_;
}

void HttpServer::request_drain() noexcept {
  // Async-signal-safe: one lock-free atomic store, one relaxed store into the
  // gauge, one write(2) on the self-pipe. No locks, no allocation.
  draining_.store(true, std::memory_order_release);
  obs_.draining->set(1.0);
  listener_.interrupt();
}

void HttpServer::wait() {
  const std::lock_guard<std::mutex> lock(join_mutex_);
  if (joined_) return;
  if (acceptor_.joinable()) acceptor_.join();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  joined_ = true;
}

void HttpServer::accept_loop() {
  while (auto sock = listener_.accept()) {
    obs_.accepted->add();
    bool shed = false;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (pending_.size() >= config_.max_pending_connections) {
        shed = true;
      } else {
        pending_.push_back(std::move(*sock));
        obs_.queue_depth->set(static_cast<double>(pending_.size()));
      }
    }
    if (shed) {
      // Load shedding: tell the client to back off, bounded by a short write
      // timeout so a stalled peer cannot stall the acceptor. Orderly close
      // (FIN), not abort (RST) — an RST can flush the peer's receive queue
      // before it reads the 503, and a shed client that never sees
      // Retry-After retries immediately, which is the opposite of shedding.
      obs_.shed->add();
      try {
        sock->set_write_timeout(std::chrono::milliseconds(100));
        sock->write_all(shed_response().serialize(false));
      } catch (const io_error&) {
        // Best effort only; the close below still frees the acceptor.
      }
      sock->close();
    } else {
      work_ready_.notify_one();
    }
  }
  // accept() returned nullopt: drain was requested. Close the listener —
  // interrupt() only woke us; while the fd stays open the kernel keeps
  // completing handshakes into the backlog, and those peers would hang.
  // Then tell the workers the queue will never grow again so they can exit
  // once it empties.
  listener_.close();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    accept_done_ = true;
  }
  work_ready_.notify_all();
}

void HttpServer::worker_loop() {
  for (;;) {
    TcpSocket sock;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock,
                       [this] { return accept_done_ || !pending_.empty(); });
      if (pending_.empty()) return;  // accept_done_ && nothing left: drained
      sock = std::move(pending_.front());
      pending_.pop_front();
      obs_.queue_depth->set(static_cast<double>(pending_.size()));
    }
    serve_connection(std::move(sock));
  }
}

void HttpServer::serve_connection(TcpSocket sock) {
  try {
    sock.set_read_timeout(config_.read_timeout);
    sock.set_write_timeout(config_.write_timeout);
  } catch (const io_error&) {
    obs_.io_errors->add();
    return;
  }
  RequestReader reader(sock, config_.limits);
  for (;;) {
    const RequestOutcome outcome = reader.next();
    if (!outcome.ok()) {
      if (outcome.error == RequestError::kClosed) return;  // clean keep-alive end
      obs_.parse_errors->add();
      const int status = status_for(outcome.error);
      if (status == 0) {
        // Transport already broke (reset / hard I/O error): nothing to say.
        obs_.io_errors->add();
        return;
      }
      HttpResponse resp =
          text_response(status, std::string(to_string(outcome.error)));
      if (status == 503) resp.headers.push_back(
          {"Retry-After", std::to_string(config_.retry_after_seconds)});
      try {
        sock.write_all(resp.serialize(false));
      } catch (const io_error&) {
        obs_.io_errors->add();
      }
      return;  // parse errors always close: the stream may be desynchronized
    }

    obs_.requests->add();
    const auto start = std::chrono::steady_clock::now();
    HttpResponse resp;
    try {
      resp = route(outcome.request);
    } catch (const std::exception& e) {
      resp = text_response(500, std::string("internal error: ") + e.what());
    }
    if (resp.status >= 500) {
      obs_.responses_5xx->add();
    } else if (resp.status >= 400) {
      obs_.responses_4xx->add();
    } else {
      obs_.responses_2xx->add();
    }

    // A drain that lands mid-request still answers that request — with
    // Connection: close so the client reconnects elsewhere.
    const bool keep = outcome.request.keep_alive() && !draining();
    try {
      sock.write_all(resp.serialize(keep));
    } catch (const io_error&) {
      obs_.io_errors->add();
      return;
    }
    const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - start);
    obs_.request_us->observe(static_cast<double>(elapsed.count()));
    if (!keep) return;
  }
}

HttpResponse HttpServer::route(const HttpRequest& req) {
  if (req.path == "/score") {
    if (req.method != "POST") return method_not_allowed("POST");
    return handle_score(req);
  }
  if (req.path == "/models") {
    if (req.method != "GET") return method_not_allowed("GET");
    return handle_models();
  }
  if (req.path == "/metrics") {
    if (req.method != "GET") return method_not_allowed("GET");
    return handle_metrics(req);
  }
  if (req.path == "/series") {
    if (req.method != "GET") return method_not_allowed("GET");
    return handle_series(req);
  }
  if (req.path == "/healthz") {
    if (req.method != "GET") return method_not_allowed("GET");
    return text_response(200, draining() ? "draining" : "ok");
  }
  return text_response(404, "not found");
}

HttpResponse HttpServer::handle_score(const HttpRequest& req) {
  // Per-request deadline: client's X-Deadline-Ms (capped at max_deadline) or
  // the configured default. 0 disables — the client accepts any wait.
  auto budget = config_.default_deadline;
  if (const auto hdr = req.header("X-Deadline-Ms")) {
    long long ms = 0;
    if (!util::parse_int(util::trim(*hdr), ms) || ms < 0) {
      return text_response(400, "bad X-Deadline-Ms: expected nonnegative integer");
    }
    budget = std::min(std::chrono::milliseconds(ms), config_.max_deadline);
  }
  serve::Deadline deadline;
  if (budget.count() > 0) {
    deadline = std::chrono::steady_clock::now() + budget;
  }

  if (req.body.empty()) return text_response(400, "empty body: expected CSV rows");

  table::Table rows;
  try {
    std::istringstream in(req.body);
    rows = table::read_csv(in);
  } catch (const std::exception& e) {
    return text_response(400, std::string("bad CSV: ") + e.what());
  }
  if (rows.num_rows() == 0) return text_response(400, "no data rows in body");

  // One snapshot for the whole request: scoring and labels come from the
  // same service even if swap_service() lands mid-flight.
  const std::shared_ptr<serve::PredictionService> service = this->service();
  const auto& meta = service->model();
  std::future<std::vector<double>> fut;
  try {
    fut = service->submit(rows, deadline);
  } catch (const util::precondition_error& e) {
    // submit() checks the rows against the model schema and lists every
    // mismatch.
    return text_response(422, std::string("schema mismatch: ") + e.what());
  }
  std::vector<double> predictions;
  try {
    predictions = fut.get();
  } catch (const serve::deadline_exceeded_error&) {
    obs_.deadline_exceeded->add();
    return text_response(504, "deadline exceeded before scoring completed");
  } catch (const std::exception& e) {
    return text_response(500, std::string("scoring failed: ") + e.what());
  }

  std::string body = "prediction\n";
  const bool classify = meta.task == cart::Task::kClassification &&
                        !meta.class_labels.empty();
  for (const double p : predictions) {
    if (classify) {
      const auto code = static_cast<std::size_t>(p);
      body += code < meta.class_labels.size() ? meta.class_labels[code]
                                              : format_double(p);
    } else {
      body += format_double(p);
    }
    body += '\n';
  }
  HttpResponse resp;
  resp.status = 200;
  resp.content_type = "text/csv; charset=utf-8";
  resp.body = std::move(body);
  return resp;
}

HttpResponse HttpServer::handle_models() const {
  const std::shared_ptr<serve::PredictionService> service = this->service();
  const auto& meta = service->model();
  std::string json = "{\"schema\":\"rainshine.models.v1\",";
  json += "\"draining\":";
  json += draining() ? "true" : "false";
  json += ',';
  if (registry_ != nullptr) {
    // Swap observability: the registry-wide put counter and the wall-clock
    // time of the most recent put, so an external watcher can tell "same
    // version string" apart from "same bits I saw last scrape".
    json += "\"swap_generation\":" + std::to_string(registry_->swap_generation());
    json += ",\"last_swap_unix_ms\":" + std::to_string(registry_->last_swap_unix_ms());
    json += ',';
  }
  json += "\"serving\":{\"name\":\"" + json_escape(meta.name) + "\"";
  json += ",\"version\":" + std::to_string(meta.version);
  json += ",\"task\":\"";
  json += meta.task == cart::Task::kClassification ? "classification"
                                                   : "regression";
  json += "\",\"oob_error\":" + format_double(meta.oob_error);
  json += '}';
  json += ",\"registered\":[";
  if (registry_ != nullptr) {
    bool first = true;
    for (const auto& entry : registry_->describe()) {
      const auto& key = entry.key;
      if (!first) json += ',';
      first = false;
      json += "{\"name\":\"" + json_escape(key.name) + "\"";
      json += ",\"version\":" + std::to_string(key.version);
      json += ",\"generation\":" + std::to_string(entry.generation);
      json += ",\"registered_unix_ms\":" + std::to_string(entry.registered_unix_ms);
      json += ",\"serving\":";
      json += (key.name == meta.name && key.version == meta.version) ? "true"
                                                                     : "false";
      json += '}';
    }
  }
  json += "]}";
  HttpResponse resp;
  resp.content_type = "application/json";
  resp.body = std::move(json);
  return resp;
}

HttpResponse HttpServer::handle_metrics(const HttpRequest& req) const {
  const auto snap = obs::registry().snapshot();
  HttpResponse resp;
  const auto format = req.query_param("format").value_or("text");
  if (format == "json") {
    resp.content_type = "application/json";
    resp.body = obs::to_json(snap);
  } else if (format == "csv") {
    resp.content_type = "text/csv; charset=utf-8";
    resp.body = obs::to_csv(snap);
  } else if (format == "text") {
    resp.body = obs::to_text(snap);
  } else {
    return text_response(400, "unknown format: expected text, json, or csv");
  }
  return resp;
}

HttpResponse HttpServer::handle_series(const HttpRequest& req) const {
  if (series_ == nullptr) {
    return text_response(404, "no series store attached to this server");
  }

  // Bounded typed query parsing, same stance as the HttpLimits layer: every
  // parameter has an explicit type, range and cap, and a bad value is a 400
  // naming the parameter — never a fallback to something surprising.
  const auto name = req.query_param("series");
  if (!name) {
    // Catalogue: every series with its tier geometry.
    std::string json = "{\"schema\":\"rainshine.series.v1\",\"series\":[";
    bool first = true;
    for (const auto& spec : series_->describe()) {
      if (!first) json += ',';
      first = false;
      json += "{\"name\":\"" + json_escape(spec.name) + "\",\"tiers\":[";
      bool first_tier = true;
      for (const auto& tier : spec.tiers) {
        if (!first_tier) json += ',';
        first_tier = false;
        json += "{\"step_hours\":" + std::to_string(tier.step_hours);
        json += ",\"slots\":" + std::to_string(tier.slots) + '}';
      }
      json += "]}";
    }
    json += "]}";
    HttpResponse resp;
    resp.content_type = "application/json";
    resp.body = std::move(json);
    return resp;
  }

  if (!series_->contains(*name)) {
    return text_response(404, "unknown series: " + std::string(*name));
  }
  const stream::SeriesId id = series_->id_of(*name);
  const std::vector<stream::SeriesSpec> catalogue = series_->describe();

  long long tier = 0;
  if (const auto v = req.query_param("tier")) {
    if (!util::parse_int(util::trim(*v), tier) || tier < 0) {
      return text_response(400, "bad tier: expected nonnegative integer");
    }
  }
  if (static_cast<std::size_t>(tier) >= catalogue[id].tiers.size()) {
    return text_response(400, "bad tier: series has " +
                                  std::to_string(catalogue[id].tiers.size()) +
                                  " tier(s)");
  }
  long long from_hour = 0;
  bool have_from = false;
  if (const auto v = req.query_param("from_hour")) {
    if (!util::parse_int(util::trim(*v), from_hour) || from_hour < 0) {
      return text_response(400, "bad from_hour: expected nonnegative integer");
    }
    have_from = true;
  }
  long long to_hour = 0;
  bool have_to = false;
  if (const auto v = req.query_param("to_hour")) {
    if (!util::parse_int(util::trim(*v), to_hour) || to_hour < 0) {
      return text_response(400, "bad to_hour: expected nonnegative integer");
    }
    have_to = true;
  }
  if (have_from && have_to && to_hour <= from_hour) {
    return text_response(400, "bad range: to_hour must exceed from_hour");
  }
  constexpr long long kMaxPointsCap = 4096;
  long long max_points = 512;
  if (const auto v = req.query_param("max_points")) {
    if (!util::parse_int(util::trim(*v), max_points) || max_points < 1 ||
        max_points > kMaxPointsCap) {
      return text_response(400, "bad max_points: expected 1.." +
                                    std::to_string(kMaxPointsCap));
    }
  }

  std::vector<stream::AggregateSample> samples = series_->read(
      id, static_cast<std::size_t>(tier),
      have_from ? from_hour : std::numeric_limits<std::int64_t>::min(),
      have_to ? to_hour : std::numeric_limits<std::int64_t>::max());
  // Truncate to the NEWEST max_points — the recent edge is what a live
  // scrape wants — and say so, rather than silently decimating.
  const bool truncated = samples.size() > static_cast<std::size_t>(max_points);
  if (truncated) {
    samples.erase(samples.begin(),
                  samples.end() - static_cast<std::ptrdiff_t>(max_points));
  }

  std::string json = "{\"schema\":\"rainshine.series.v1\"";
  json += ",\"name\":\"" + json_escape(*name) + "\"";
  json += ",\"tier\":{\"step_hours\":" +
          std::to_string(catalogue[id].tiers[static_cast<std::size_t>(tier)].step_hours);
  json += ",\"slots\":" +
          std::to_string(catalogue[id].tiers[static_cast<std::size_t>(tier)].slots) + '}';
  json += ",\"last_hour\":" + std::to_string(series_->last_hour(id));
  json += ",\"truncated\":";
  json += truncated ? "true" : "false";
  json += ",\"samples\":[";
  bool first = true;
  for (const auto& s : samples) {
    if (!first) json += ',';
    first = false;
    json += "{\"hour\":" + std::to_string(s.bucket_start_hour);
    json += ",\"count\":" + std::to_string(s.count);
    if (s.count == 0) {
      // A gap: no samples landed while the bucket was in the window.
      json += ",\"mean\":null,\"min\":null,\"max\":null}";
    } else {
      json += ",\"mean\":" + format_double(s.mean());
      json += ",\"min\":" + format_double(s.min);
      json += ",\"max\":" + format_double(s.max) + '}';
    }
  }
  json += "]}";
  HttpResponse resp;
  resp.content_type = "application/json";
  resp.body = std::move(json);
  return resp;
}

HttpResponse HttpServer::shed_response() const {
  HttpResponse resp = text_response(503, "server overloaded, retry later");
  resp.headers.push_back(
      {"Retry-After", std::to_string(config_.retry_after_seconds)});
  return resp;
}

}  // namespace rainshine::net
