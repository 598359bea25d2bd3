#include "tile/front.hpp"

#include <errno.h>
#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <stdexcept>
#include <utility>

namespace fgnvm::tile {

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

}  // namespace

FrontTier::FrontTier(Topology& topo, Config cfg)
    : topo_(topo), cfg_(cfg) {
  ep_ = ::epoll_create1(0);
  if (ep_ < 0) {
    throw std::runtime_error(std::string("FrontTier: epoll_create1: ") +
                             std::strerror(errno));
  }
}

FrontTier::~FrontTier() {
  for (auto& [fd, c] : clients_) {
    (void)c;
    ::close(fd);
  }
  if (listener_ >= 0) ::close(listener_);
  if (ep_ >= 0) ::close(ep_);
}

void FrontTier::set_listener(int fd) {
  if (listener_ >= 0) {
    throw std::logic_error("FrontTier: listener already set");
  }
  listener_ = fd;
  set_nonblocking(fd);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (::epoll_ctl(ep_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    throw std::runtime_error(std::string("FrontTier: epoll_ctl(listener): ") +
                             std::strerror(errno));
  }
}

void FrontTier::add_client(int fd) {
  set_nonblocking(fd);
  auto c = std::make_unique<Client>();
  c->fd = fd;
  c->id = next_client_id_++;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (::epoll_ctl(ep_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    ::close(fd);
    throw std::runtime_error(std::string("FrontTier: epoll_ctl(client): ") +
                             std::strerror(errno));
  }
  by_id_[c->id] = c.get();
  clients_[fd] = std::move(c);
  seen_client_ = true;
  ++totals_.clients_served;
}

std::uint64_t FrontTier::alloc_tag(std::uint32_t client,
                                   std::uint64_t user_tag) {
  std::uint32_t slot;
  if (!free_tags_.empty()) {
    slot = free_tags_.back();
    free_tags_.pop_back();
    tags_[slot] = TagSlot{client, user_tag};
  } else {
    slot = static_cast<std::uint32_t>(tags_.size());
    tags_.push_back(TagSlot{client, user_tag});
  }
  return slot;
}

FrontTier::Client* FrontTier::find_client(std::uint32_t id) {
  const auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : it->second;
}

void FrontTier::run() {
  epoll_event evs[64];
  while (!stop_.load(std::memory_order_relaxed)) {
    if (cfg_.exit_when_idle && seen_client_ && clients_.empty()) break;

    // Tight timeout only while the tier itself has deferred work (parked
    // retries, undrained output); otherwise idle at the configured period.
    // Completions retire as a side effect of command processing, so an
    // idle socket set needs no busy poll.
    bool deferred = output_pending();
    for (const auto& [fd, c] : clients_) {
      (void)fd;
      if (c->parked) deferred = true;
    }
    const int timeout = deferred ? 1 : cfg_.idle_timeout_ms;

    const int n = ::epoll_wait(ep_, evs, 64, timeout);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("FrontTier: epoll_wait: ") +
                               std::strerror(errno));
    }
    for (int i = 0; i < n; ++i) {
      const int fd = evs[i].data.fd;
      if (fd == listener_) {
        accept_ready();
        continue;
      }
      const auto it = clients_.find(fd);
      if (it == clients_.end()) continue;  // closed earlier this iteration
      Client& c = *it->second;
      if (evs[i].events & EPOLLIN) on_readable(c);
      if (clients_.find(fd) == clients_.end()) continue;
      if (evs[i].events & EPOLLOUT) try_write(c);
      if (clients_.find(fd) == clients_.end()) continue;
      if ((evs[i].events & (EPOLLHUP | EPOLLERR)) &&
          !(evs[i].events & EPOLLIN)) {
        dead_.push_back(fd);
      }
    }
    for (const int fd : dead_) close_client(fd);
    dead_.clear();

    // Coordinator-side progress: serial-mode shards advance here; either
    // mode drains its egress rings into the ready queue.
    topo_.pump();
    dispatch_completions();
    retry_parked();
    flush_outputs();

    // Deferred closes: clients that finished (Q) or errored close once
    // their outbound bytes (S / E frames) are on the wire.
    for (const auto& [fd, c] : clients_) {
      if (c->want_close && c->out_off >= c->outbuf.size()) dead_.push_back(fd);
    }
    for (const int fd : dead_) close_client(fd);
    dead_.clear();
  }
}

void FrontTier::accept_ready() {
  for (;;) {
    const int cfd = ::accept(listener_, nullptr, nullptr);
    if (cfd < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == ECONNABORTED) continue;
      return;  // transient accept failure; the loop will retry on epoll
    }
    add_client(cfd);
  }
}

void FrontTier::on_readable(Client& c) {
  if (c.parked || c.want_close) return;  // EPOLLIN is off; stale event
  std::uint8_t buf[65536];
  const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
  if (n == 0) {
    dead_.push_back(c.fd);
    return;
  }
  if (n < 0) {
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) return;
    // ECONNRESET and friends: the peer is gone, drop the client.
    dead_.push_back(c.fd);
    return;
  }
  c.qos.bytes_in += static_cast<std::uint64_t>(n);
  c.reader.feed(buf, static_cast<std::size_t>(n));
  process_frames(c);
}

void FrontTier::process_frames(Client& c) {
  // decode_batch drains every complete frame of the last feed in one pass;
  // submissions are then batched per client so each shard's ring sees one
  // release store per (client, loop iteration), not one per request.
  try {
    c.reader.decode_batch(views_);
  } catch (const std::exception& e) {
    protocol_error(c, e.what());  // oversized length prefix
    return;
  }
  items_.clear();
  for (const FrameView& v : views_) {
    const auto req = decode_request(v.data, v.len);
    if (!req) {
      ++totals_.frames_in;
      Response resp;
      resp.kind = RespFrame::kError;
      resp.error = "malformed request frame";
      encode_response(resp, c.outbuf);
      ++totals_.protocol_errors;
      continue;
    }
    if (req->kind == ReqFrame::kRead || req->kind == ReqFrame::kWrite) {
      ++totals_.frames_in;
      Topology::SubmitItem it;
      it.addr = req->addr;
      it.not_before = req->not_before;
      if (req->kind == ReqFrame::kRead) {
        it.op = OpType::kRead;
        it.tag = alloc_tag(c.id, req->tag);  // routed back via the pool
      } else {
        it.op = OpType::kWrite;
        it.tag = req->tag;  // posted: acked below, never completes
      }
      items_.push_back(it);
      continue;
    }
    // Control frames (F/Q) act on everything before them: push the batch
    // built so far first so stream order is preserved.
    if (!items_.empty()) {
      submit_items(c, items_);
      items_.clear();
    }
    if (c.parked) {
      // The batch before this control frame parked the client: part of it
      // is still held in c.retry, and an F acting now would flush ahead of
      // those requests (perturbing the channel clocks). Put the frame —
      // and everything after it — back into the reader; retry_parked()
      // re-enters process_frames after the held tail admits, so the frame
      // acts in its original stream position.
      c.reader.rewind_to(v.off);
      return;
    }
    ++totals_.frames_in;
    handle_request(c, *req);
    if (c.want_close) return;  // anything after a Q is ignored
  }
  if (!items_.empty()) {
    submit_items(c, items_);
    items_.clear();
  }
}

void FrontTier::handle_request(Client& c, const Request& req) {
  switch (req.kind) {
    case ReqFrame::kFlush: {
      // Blocking drain: every channel runs to idle and every in-flight
      // read's completion lands in the ready queue before the ack. A
      // flush stalls admission for all clients (it is a global barrier in
      // the simulation) — by design, matching the serial runners.
      topo_.flush();
      dispatch_completions();
      Response resp;
      resp.kind = RespFrame::kFlushDone;
      resp.tag = req.tag;
      resp.mem_cycles = topo_.drained_cycles();
      encode_response(resp, c.outbuf);
      break;
    }
    case ReqFrame::kPing: {
      // Admission fence: a control frame only reaches here once every
      // earlier frame from this client sits in the shard rings (a park puts
      // the ping back via rewind_to until the held tail admits). The pong
      // therefore tells the client its whole stream so far has been
      // admitted — the barrier multi-client flush coordination needs.
      Response resp;
      resp.kind = RespFrame::kPong;
      resp.tag = req.tag;
      encode_response(resp, c.outbuf);
      break;
    }
    case ReqFrame::kQuit: {
      Response resp;
      resp.kind = RespFrame::kStats;
      resp.stats.requests = c.qos.requests;
      resp.stats.reads = c.qos.reads;
      resp.stats.writes = c.qos.writes;
      resp.stats.completions = c.qos.completions;
      resp.stats.bytes_in = c.qos.bytes_in;
      resp.stats.bytes_out = c.qos.bytes_out;
      resp.stats.p50_read_latency =
          static_cast<std::uint64_t>(c.qos.read_latency.percentile(0.50));
      resp.stats.p99_read_latency =
          static_cast<std::uint64_t>(c.qos.read_latency.percentile(0.99));
      resp.stats.park_ns = c.qos.park_ns;
      encode_response(resp, c.outbuf);
      c.want_close = true;  // closed once the S frame is on the wire
      break;
    }
    case ReqFrame::kRead:
    case ReqFrame::kWrite:
      break;  // handled by the batch path
  }
}

void FrontTier::submit_items(Client& c,
                             std::vector<Topology::SubmitItem>& items) {
  topo_.try_submit_batch(items.data(), items.size());
  Addr first_rejected = 0;
  bool any_rejected = false;
  for (const Topology::SubmitItem& it : items) {
    if (it.accepted) {
      on_admitted(c, it);
    } else {
      if (!any_rejected) {
        any_rejected = true;
        first_rejected = it.addr;
      }
      c.retry.push_back(it);  // re-offered in order before any new frame
    }
  }
  if (any_rejected) park(c, first_rejected);
}

void FrontTier::on_admitted(Client& c, const Topology::SubmitItem& it) {
  ++c.qos.requests;
  if (it.op == OpType::kRead) {
    ++c.qos.reads;
    return;
  }
  ++c.qos.writes;
  Response resp;
  resp.kind = RespFrame::kWriteAck;
  resp.tag = it.tag;
  resp.id = it.id;
  encode_response(resp, c.outbuf);
}

void FrontTier::park(Client& c, Addr first_rejected) {
  if (c.parked) return;
  c.parked = true;
  c.park_start = std::chrono::steady_clock::now();
  ++totals_.parks;
  ++totals_.busy_frames;
  ++c.qos.busy_frames;
  Response resp;
  resp.kind = RespFrame::kBusy;
  resp.free_slots = topo_.ring_free(first_rejected);
  encode_response(resp, c.outbuf);
  // Stop polling for read: the kernel socket buffer absorbs whatever the
  // client keeps sending, which is the actual backpressure.
  epoll_event ev{};
  ev.events = c.epollout ? static_cast<std::uint32_t>(EPOLLOUT) : 0u;
  ev.data.fd = c.fd;
  (void)::epoll_ctl(ep_, EPOLL_CTL_MOD, c.fd, &ev);
}

void FrontTier::retry_parked() {
  for (auto& [fd, cp] : clients_) {
    (void)fd;
    Client& c = *cp;
    if (!c.parked) continue;
    topo_.try_submit_batch(c.retry.data(), c.retry.size());
    still_rejected_.clear();
    for (const Topology::SubmitItem& it : c.retry) {
      if (it.accepted) {
        on_admitted(c, it);
      } else {
        still_rejected_.push_back(it);
      }
    }
    c.retry.swap(still_rejected_);
    if (c.retry.empty()) {
      c.parked = false;
      c.qos.park_ns += elapsed_ns(c.park_start);
      epoll_event ev{};
      ev.events = EPOLLIN | (c.epollout ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
      ev.data.fd = c.fd;
      (void)::epoll_ctl(ep_, EPOLL_CTL_MOD, c.fd, &ev);
      // Frames that arrived while parked are still buffered (we stopped
      // decoding, not just reading); resume them now, in order.
      process_frames(c);
    }
  }
}

void FrontTier::dispatch_completions() {
  comps_.clear();
  topo_.poll_completions(comps_);
  for (const Completion& evt : comps_) {
    const std::uint64_t slot = evt.tag;
    if (slot >= tags_.size()) {
      ++totals_.completions_dropped;  // never allocated: foreign traffic
      continue;
    }
    const TagSlot tag = tags_[static_cast<std::size_t>(slot)];
    free_tags_.push_back(static_cast<std::uint32_t>(slot));
    Client* c = find_client(tag.client);
    if (!c) {
      ++totals_.completions_dropped;  // owner disconnected before the read
      continue;
    }
    Response resp;
    resp.kind = RespFrame::kReadDone;
    resp.tag = tag.user_tag;
    resp.id = evt.id;
    resp.submitted = evt.submitted;
    resp.completed = evt.completed;
    resp.channel = evt.channel;
    encode_response(resp, c->outbuf);
    ++c->qos.completions;
    c->qos.read_latency.add(evt.completed - evt.submitted);
    ++totals_.completions_routed;
  }
}

void FrontTier::flush_outputs() {
  for (auto& [fd, c] : clients_) {
    (void)fd;
    if (c->out_off < c->outbuf.size()) try_write(*c);
  }
}

void FrontTier::try_write(Client& c) {
  while (c.out_off < c.outbuf.size()) {
    const ssize_t n = ::send(c.fd, c.outbuf.data() + c.out_off,
                             c.outbuf.size() - c.out_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        update_epollout(c, true);
        return;
      }
      // EPIPE/ECONNRESET: peer gone; any remaining output is undeliverable.
      dead_.push_back(c.fd);
      return;
    }
    c.out_off += static_cast<std::size_t>(n);
    c.qos.bytes_out += static_cast<std::uint64_t>(n);
  }
  c.outbuf.clear();
  c.out_off = 0;
  update_epollout(c, false);
}

void FrontTier::update_epollout(Client& c, bool want) {
  if (c.epollout == want) return;
  c.epollout = want;
  epoll_event ev{};
  ev.events = (c.parked || c.want_close ? 0u : EPOLLIN) |
              (want ? EPOLLOUT : 0u);
  ev.data.fd = c.fd;
  (void)::epoll_ctl(ep_, EPOLL_CTL_MOD, c.fd, &ev);
}

void FrontTier::protocol_error(Client& c, const std::string& what) {
  ++totals_.protocol_errors;
  Response resp;
  resp.kind = RespFrame::kError;
  resp.error = what;
  encode_response(resp, c.outbuf);
  c.want_close = true;  // the byte stream is unrecoverable past this point
  epoll_event ev{};
  ev.events = c.epollout ? static_cast<std::uint32_t>(EPOLLOUT) : 0u;
  ev.data.fd = c.fd;
  (void)::epoll_ctl(ep_, EPOLL_CTL_MOD, c.fd, &ev);
}

void FrontTier::close_client(int fd) {
  const auto it = clients_.find(fd);
  if (it == clients_.end()) return;
  if (it->second->parked) {
    it->second->qos.park_ns += elapsed_ns(it->second->park_start);
  }
  // In-flight reads keep their tag slots; when the completions arrive they
  // are counted as dropped and the slots recycle. Only rejected-but-held
  // submissions (c.retry) die with the client — their tags were allocated
  // but will never complete, so those slots stay retired for the tier's
  // lifetime (bounded by the ring capacity per park episode).
  by_id_.erase(it->second->id);
  (void)::epoll_ctl(ep_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  clients_.erase(it);
}

bool FrontTier::output_pending() const {
  for (const auto& [fd, c] : clients_) {
    (void)fd;
    if (c->out_off < c->outbuf.size()) return true;
  }
  return false;
}

}  // namespace fgnvm::tile
