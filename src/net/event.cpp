#include "net/event.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace hydra::net {

namespace {
constexpr SimTime kInf = std::numeric_limits<SimTime>::infinity();

void check_not_past(SimTime t, SimTime now) {
  if (t < now) {
    throw std::invalid_argument("cannot schedule an event in the past");
  }
}
}  // namespace

EventQueue::Item& EventQueue::park(Heap& heap, SimTime t, EventKind kind) {
  check_not_past(t, now_);
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  const std::uint64_t seq = next_seq_++;
  heap.push_back(Key{t, seq, slot});
  std::push_heap(heap.begin(), heap.end(), Later{});
  // A reused slot holds a moved-from Item: reset every field.
  Item& item = slots_[slot];
  item.t = t;
  item.seq = seq;
  item.kind = kind;
  item.fn = nullptr;
  item.tick = nullptr;
  item.work = SwitchWork{};
  return item;
}

EventQueue::Item& EventQueue::unpark(Heap& heap) {
  std::pop_heap(heap.begin(), heap.end(), Later{});
  const std::uint32_t slot = heap.back().slot;
  heap.pop_back();
  free_slots_.push_back(slot);
  return slots_[slot];
}

void EventQueue::schedule_at(SimTime t, std::function<void()> fn) {
  park(cl_heap_, t, EventKind::kClosure).fn = std::move(fn);
}

void EventQueue::schedule_tick_at(SimTime t, TickTarget* target) {
  park(cl_heap_, t, EventKind::kTick).tick = target;
}

void EventQueue::schedule_packet_at(SimTime t, int dest, int dest_port,
                                    PacketHandle pkt) {
  Item& item = park(cl_heap_, t, EventKind::kPacketSend);
  item.work.sw = dest;
  item.work.in_port = dest_port;
  item.work.pkt = pkt;
}

void EventQueue::schedule_switch_at(SimTime t, int sw, int in_port,
                                    PacketHandle pkt) {
  Item& item = park(sw_heap_, t, EventKind::kSwitchWork);
  item.work.sw = sw;
  item.work.in_port = in_port;
  item.work.pkt = pkt;
}

void EventQueue::schedule_control_at(SimTime t, int sw, ControlHandle op) {
  Item& item = park(sw_heap_, t, EventKind::kSwitchWork);
  item.work.sw = sw;
  item.work.ctl = op;
}

SimTime EventQueue::next_time() const {
  return switch_heap_first() ? sw_heap_.front().t : cl_heap_.front().t;
}

SimTime EventQueue::next_closure_time() const {
  return cl_heap_.empty() ? kInf : cl_heap_.front().t;
}

SimTime EventQueue::next_switch_time() const {
  return sw_heap_.empty() ? kInf : sw_heap_.front().t;
}

bool EventQueue::switch_heap_first() const {
  if (sw_heap_.empty()) return false;
  if (cl_heap_.empty()) return true;
  const Key& s = sw_heap_.front();
  const Key& c = cl_heap_.front();
  return s.t < c.t || (s.t == c.t && s.seq < c.seq);
}

EventQueue::Item EventQueue::pop_next() {
  // Moved out before returning, so handlers may schedule more events.
  return std::move(unpark(next_heap()));
}

void EventQueue::pop_window(SimTime limit, SimTime window_end,
                            std::vector<Item>& out) {
  if (empty()) return;
  const SimTime t0 = next_time();
  while (!empty()) {
    Heap& heap = next_heap();
    const SimTime t = heap.front().t;
    if (t > limit || (t != t0 && t >= window_end)) break;
    out.push_back(std::move(unpark(heap)));
  }
}

void EventQueue::run_self(SimTime t) {
  while (!empty() && next_time() <= t) {
    Item item = pop_next();
    now_ = item.t;
    switch (item.kind) {
      case EventKind::kClosure:
        item.fn();
        break;
      case EventKind::kTick:
        item.tick->tick(now_);
        break;
      case EventKind::kPacketSend:
      case EventKind::kSwitchWork:
        // Packet handles resolve through the owning Network's pools; a
        // bare queue has no way to execute them.
        throw std::logic_error(
            "network event scheduled on an EventQueue with no executor");
    }
  }
}

void EventQueue::run_until(SimTime t) {
  if (executor_ != nullptr) {
    executor_->drain(*this, t);
  } else {
    run_self(t);
  }
  if (now_ < t) now_ = t;
}

void EventQueue::run() {
  if (executor_ != nullptr) {
    executor_->drain(*this, kInf);
  } else {
    run_self(kInf);
  }
}

}  // namespace hydra::net
