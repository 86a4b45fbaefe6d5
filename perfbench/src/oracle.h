// Output oracles: references the benchmark computes itself from the
// generated input, and the checks every job's output must pass.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "dfs/dfs.h"
#include "mr/engine.h"

namespace perfbench {

/// A job's part files in reducer order.
std::vector<std::string> PartFiles(const bmr::mr::JobResult& result);

/// Hash and size of a job's raw part-file bytes, in reducer order.  Two
/// jobs with equal digests wrote byte-identical output.
struct OutputDigest {
  uint64_t hash = 0;
  uint64_t bytes = 0;
  bool operator==(const OutputDigest& o) const {
    return hash == o.hash && bytes == o.bytes;
  }
};
[[nodiscard]] bmr::StatusOr<OutputDigest> DigestOutput(
    bmr::dfs::DfsClient* client, const bmr::mr::JobResult& result);

/// Drop a finished job's part files (the DFS keeps blocks in memory).
void DeleteOutput(bmr::dfs::DfsClient* client,
                  const bmr::mr::JobResult& result);

/// Every line of the given DFS text files.
[[nodiscard]] bmr::StatusOr<std::vector<std::string>> ReadLines(
    bmr::dfs::DfsClient* client, const std::vector<std::string>& files);

/// Exact expected output of a batch job, per reducer.
class BatchOracle {
 public:
  /// WordCount: exact count of every word, hash-partitioned like the
  /// engine's default partitioner, each part in key order.
  static bmr::StatusOr<BatchOracle> WordCount(
      bmr::dfs::DfsClient* client, const std::vector<std::string>& files,
      int num_reducers);
  /// Sort: the sorted multiset of input integers; the range partitioner
  /// makes the concatenated parts globally sorted.
  static bmr::StatusOr<BatchOracle> Sort(bmr::dfs::DfsClient* client,
                                         const std::vector<std::string>& files);

  /// Decode every part file and compare it with the reference.
  [[nodiscard]] bmr::Status Check(bmr::dfs::DfsClient* client,
                                  const bmr::mr::JobResult& result) const;

  uint64_t input_records() const { return input_records_; }
  uint64_t distinct_keys() const { return distinct_keys_; }

 private:
  // WordCount: per reducer, (key, encoded value) in key order.
  std::vector<std::vector<bmr::mr::Record>> parts_;
  // Sort: every input value, ascending.
  std::vector<int64_t> sorted_;
  bool is_sort_ = false;
  uint64_t input_records_ = 0;
  uint64_t distinct_keys_ = 0;
};

/// Checks one service job's decoded output.
using OutputCheck =
    std::function<bmr::Status(const std::vector<bmr::mr::Record>& output)>;

/// Grep: exactly the input lines containing `pattern`, as a multiset.
OutputCheck GrepCheck(const std::vector<std::string>& lines,
                      const std::string& pattern);
/// kNN: per experimental value, the multiset of the k nearest training
/// distances (ties may pick different training points).
OutputCheck KnnCheck(const std::vector<std::string>& experimental_lines,
                     const std::vector<int64_t>& training, int k);
/// Last.fm: exact unique-listener count per track.
OutputCheck LastFmCheck(const std::vector<std::string>& listen_lines);
/// Black-Scholes: exact sample count, mean within six standard errors
/// of the closed form (float sums depend on fold order, so only
/// order-independent properties are checked).
OutputCheck BlackScholesCheck(int64_t iterations);
/// GA: one offspring per individual, each with its genome's fitness.
OutputCheck GeneticCheck(uint64_t population);

}  // namespace perfbench
