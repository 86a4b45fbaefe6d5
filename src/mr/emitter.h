// Output sinks passed to user Map / Reduce functions.
#pragma once

#include "common/bytes.h"

namespace bmr::mr {

/// Where Map emits intermediate records.
class MapEmitter {
 public:
  virtual ~MapEmitter() = default;
  virtual void Emit(Slice key, Slice value) = 0;
};

/// Where Reduce (either flavour) emits final output records.
class ReduceEmitter {
 public:
  virtual ~ReduceEmitter() = default;
  virtual void Emit(Slice key, Slice value) = 0;
};

/// A ReduceEmitter that appends to an in-memory vector; used by tests.
template <typename RecordVector>
class VectorEmitter final : public ReduceEmitter {
 public:
  explicit VectorEmitter(RecordVector* out) : out_(out) {}
  void Emit(Slice key, Slice value) override {
    out_->emplace_back(key.ToString(), value.ToString());
  }

 private:
  RecordVector* out_;
};

}  // namespace bmr::mr
