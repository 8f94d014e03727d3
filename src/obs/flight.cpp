#include "obs/flight.hpp"

#include <cstdio>

#include "support/diag.hpp"

namespace pscp::obs {

namespace {

/// Wire field names per kind, in payload order a, b, c, d. A null entry
/// means the payload slot is unused by that kind (omitted on dump, zero on
/// parse).
struct KindSpec {
  FlightKind kind;
  const char* name;
  const char* fields[4];
};

constexpr KindSpec kKindSpecs[] = {
    {FlightKind::kEpochBegin, "epoch_begin", {"cycles", "live", nullptr, nullptr}},
    {FlightKind::kEpochEnd,
     "epoch_end",
     {"wall_ns", "machine_cycles", "instances", "events"}},
    {FlightKind::kInstance, "instance", {"id", "machine_cycles", "fired", "drained"}},
    {FlightKind::kSteal, "steal", {"victim", "begin", "count", nullptr}},
    {FlightKind::kPortWrite, "port_write", {"id", "port", "value", "config_cycle"}},
    {FlightKind::kDrops, "drops", {"id", "dropped_total", nullptr, nullptr}},
};

const KindSpec* findSpec(FlightKind kind) {
  for (const KindSpec& spec : kKindSpecs)
    if (spec.kind == kind) return &spec;
  return nullptr;
}

}  // namespace

const char* flightKindName(FlightKind kind) {
  const KindSpec* spec = findSpec(kind);
  return spec != nullptr ? spec->name : "unknown";
}

bool flightKindFromName(const std::string& name, FlightKind* out) {
  for (const KindSpec& spec : kKindSpecs) {
    if (name == spec.name) {
      *out = spec.kind;
      return true;
    }
  }
  return false;
}

// ------------------------------------------------------------- FlightRing

FlightRing::FlightRing(size_t capacity) {
  size_t cap = 1;
  while (cap < capacity) cap <<= 1;
  slots_ = std::make_unique<Slot[]>(cap);
  mask_ = cap - 1;
}

void FlightRing::snapshot(int32_t shard, std::vector<FlightRecord>* out) const {
  const uint64_t end = next_.load(std::memory_order_acquire);
  const uint64_t cap = static_cast<uint64_t>(mask_) + 1;
  const uint64_t begin = end > cap ? end - cap : 0;
  for (uint64_t n = begin; n < end; ++n) {
    const Slot& slot = slots_[static_cast<size_t>(n) & mask_];
    if (slot.seq.load(std::memory_order_acquire) != 2 * n + 2) continue;
    const uint64_t kind = slot.kind.load(std::memory_order_relaxed);
    FlightRecord r;
    r.kind = static_cast<FlightKind>(kind & 0xFF);
    r.shard = shard;
    r.epoch = slot.epoch.load(std::memory_order_relaxed);
    r.a = slot.a.load(std::memory_order_relaxed);
    r.b = slot.b.load(std::memory_order_relaxed);
    r.c = slot.c.load(std::memory_order_relaxed);
    r.d = slot.d.load(std::memory_order_relaxed);
    const int64_t e = slot.e.load(std::memory_order_relaxed);
    // Re-validate after reading: if the writer lapped us mid-read the
    // fields may mix generations — every field is individually atomic, so
    // the only hazard is a stale logical record, which this check drops.
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) != 2 * n + 2) continue;
    if ((kind & 0xFF) == kInstanceWithWrites) {
      // kind: fired in bits 8-39, drained from bit 40; c and d: port << 32
      // | value; e: the writes' configuration cycle.
      const int64_t packed[2] = {r.c, r.d};
      r.kind = FlightKind::kInstance;
      r.c = static_cast<int64_t>(kind >> 8 & 0xFFFFFFFFu);
      r.d = static_cast<int64_t>(kind >> 40);
      out->push_back(r);
      r.kind = FlightKind::kPortWrite;
      r.d = e;
      for (const int64_t p : packed) {
        r.b = static_cast<int32_t>(static_cast<uint32_t>(static_cast<uint64_t>(p) >> 32));
        r.c = static_cast<uint32_t>(p);
        out->push_back(r);
      }
      continue;
    }
    if (findSpec(r.kind) == nullptr) continue;  // never published garbage
    out->push_back(r);
  }
}

// --------------------------------------------------------- FlightRecorder

FlightRecorder::FlightRecorder(size_t shardCount, size_t recordsPerShard)
    : recordsPerShard_(recordsPerShard) {
  PSCP_ASSERT(shardCount > 0 && recordsPerShard > 0);
  rings_.reserve(shardCount);
  for (size_t s = 0; s < shardCount; ++s)
    rings_.push_back(std::make_unique<FlightRing>(recordsPerShard));
}

std::vector<FlightRecord> FlightRecorder::snapshot() const {
  std::vector<FlightRecord> out;
  out.reserve(rings_.size() * 16);
  for (size_t s = 0; s < rings_.size(); ++s)
    rings_[s]->snapshot(static_cast<int32_t>(s), &out);
  return out;
}

JsonValue FlightRecorder::recordsToJson(const std::vector<FlightRecord>& records,
                                        size_t shardCount,
                                        size_t recordsPerShard) {
  JsonValue doc = JsonValue::makeObject();
  doc.set("schema", JsonValue::makeString("pscp-flight-v1"));
  doc.set("shards", JsonValue::makeNumber(static_cast<double>(shardCount)));
  doc.set("records_per_shard",
          JsonValue::makeNumber(static_cast<double>(recordsPerShard)));
  JsonValue arr = JsonValue::makeArray();
  arr.array.reserve(records.size());
  for (const FlightRecord& r : records) {
    const KindSpec* spec = findSpec(r.kind);
    PSCP_ASSERT(spec != nullptr);
    JsonValue obj = JsonValue::makeObject();
    obj.set("kind", JsonValue::makeString(spec->name));
    obj.set("shard", JsonValue::makeNumber(r.shard));
    obj.set("epoch", JsonValue::makeNumber(static_cast<double>(r.epoch)));
    const int64_t payload[4] = {r.a, r.b, r.c, r.d};
    for (int f = 0; f < 4; ++f) {
      if (spec->fields[f] == nullptr) continue;
      obj.set(spec->fields[f],
              JsonValue::makeNumber(static_cast<double>(payload[f])));
    }
    arr.array.push_back(std::move(obj));
  }
  doc.set("records", std::move(arr));
  return doc;
}

JsonValue FlightRecorder::toJson() const {
  return recordsToJson(snapshot(), rings_.size(), recordsPerShard_);
}

bool FlightRecorder::writeFile(const std::string& path, std::string* error) const {
  const std::string text = dumpJson();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open " + path + " for writing";
    return false;
  }
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  if (written != text.size()) {
    if (error != nullptr) *error = "short write to " + path;
    return false;
  }
  return true;
}

bool FlightRecorder::parseJson(const JsonValue& doc, std::vector<FlightRecord>* out,
                               std::string* error) {
  const auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  if (!doc.isObject()) return fail("pscp-flight-v1: document is not an object");
  const JsonValue* schema = doc.find("schema");
  if (schema == nullptr || !schema->isString() ||
      schema->string != "pscp-flight-v1")
    return fail("pscp-flight-v1: missing or unexpected \"schema\"");
  const JsonValue* records = doc.find("records");
  if (records == nullptr || !records->isArray())
    return fail("pscp-flight-v1: missing \"records\" array");
  out->clear();
  out->reserve(records->array.size());
  for (size_t i = 0; i < records->array.size(); ++i) {
    const JsonValue& obj = records->array[i];
    if (!obj.isObject())
      return fail(strfmt("pscp-flight-v1: records[%zu] is not an object", i));
    const JsonValue* kind = obj.find("kind");
    FlightRecord r;
    if (kind == nullptr || !kind->isString() ||
        !flightKindFromName(kind->string, &r.kind))
      return fail(strfmt("pscp-flight-v1: records[%zu] has no known kind", i));
    const KindSpec* spec = findSpec(r.kind);
    const JsonValue* shard = obj.find("shard");
    const JsonValue* epoch = obj.find("epoch");
    if (shard == nullptr || !shard->isNumber() || epoch == nullptr ||
        !epoch->isNumber())
      return fail(strfmt("pscp-flight-v1: records[%zu] lacks shard/epoch", i));
    r.shard = static_cast<int32_t>(shard->number);
    r.epoch = static_cast<int64_t>(epoch->number);
    int64_t* payload[4] = {&r.a, &r.b, &r.c, &r.d};
    for (int f = 0; f < 4; ++f) {
      if (spec->fields[f] == nullptr) continue;
      const JsonValue* field = obj.find(spec->fields[f]);
      if (field == nullptr || !field->isNumber())
        return fail(strfmt("pscp-flight-v1: records[%zu] lacks \"%s\"", i,
                           spec->fields[f]));
      *payload[f] = static_cast<int64_t>(field->number);
    }
    out->push_back(r);
  }
  return true;
}

std::string FlightRecorder::chromeTraceJson(
    const std::vector<FlightRecord>& records) {
  // Synthetic per-shard timelines: epochs are laid out back-to-back using
  // their recorded wall durations (ns -> trace µs). Records inside an
  // epoch become instant events at the epoch's start tick.
  JsonValue doc = JsonValue::makeObject();
  JsonValue events = JsonValue::makeArray();

  // Pass 1: per-shard cumulative start time for every recorded epoch.
  // (shard, epoch) -> [start, duration) in ns.
  struct EpochSlice {
    int32_t shard;
    int64_t epoch;
    int64_t startNs;
    int64_t durNs;
  };
  std::vector<EpochSlice> slices;
  std::vector<int64_t> shardClock;  // indexed by shard
  for (const FlightRecord& r : records) {
    if (r.kind != FlightKind::kEpochEnd) continue;
    if (r.shard >= static_cast<int32_t>(shardClock.size()))
      shardClock.resize(static_cast<size_t>(r.shard) + 1, 0);
    int64_t& clock = shardClock[static_cast<size_t>(r.shard)];
    slices.push_back({r.shard, r.epoch, clock, r.a});
    clock += r.a > 0 ? r.a : 1;
  }
  const auto sliceStart = [&slices](int32_t shard, int64_t epoch) -> int64_t {
    for (const EpochSlice& s : slices)
      if (s.shard == shard && s.epoch == epoch) return s.startNs;
    return 0;
  };

  const auto makeEvent = [](const char* name, const char* phase, double tsUs,
                            int32_t shard) {
    JsonValue e = JsonValue::makeObject();
    e.set("name", JsonValue::makeString(name));
    e.set("ph", JsonValue::makeString(phase));
    e.set("ts", JsonValue::makeNumber(tsUs));
    e.set("pid", JsonValue::makeNumber(0));
    e.set("tid", JsonValue::makeNumber(shard));
    return e;
  };

  for (const EpochSlice& s : slices) {
    JsonValue e = makeEvent("epoch", "X", static_cast<double>(s.startNs) / 1000.0,
                            s.shard);
    e.set("dur", JsonValue::makeNumber(static_cast<double>(s.durNs) / 1000.0));
    JsonValue args = JsonValue::makeObject();
    args.set("epoch", JsonValue::makeNumber(static_cast<double>(s.epoch)));
    e.set("args", std::move(args));
    events.array.push_back(std::move(e));
  }
  for (const FlightRecord& r : records) {
    if (r.kind != FlightKind::kSteal && r.kind != FlightKind::kPortWrite &&
        r.kind != FlightKind::kDrops)
      continue;
    JsonValue e = makeEvent(flightKindName(r.kind), "i",
                            static_cast<double>(sliceStart(r.shard, r.epoch)) / 1000.0,
                            r.shard);
    e.set("s", JsonValue::makeString("t"));
    JsonValue args = JsonValue::makeObject();
    args.set("epoch", JsonValue::makeNumber(static_cast<double>(r.epoch)));
    args.set("a", JsonValue::makeNumber(static_cast<double>(r.a)));
    args.set("b", JsonValue::makeNumber(static_cast<double>(r.b)));
    e.set("args", std::move(args));
    events.array.push_back(std::move(e));
  }

  doc.set("traceEvents", std::move(events));
  return doc.dump(0);
}

}  // namespace pscp::obs
