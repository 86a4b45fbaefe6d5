#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "apps/blackscholes.h"
#include "apps/genetic.h"
#include "apps/knn.h"
#include "apps/wordcount.h"
#include "common/hash.h"
#include "common/serde.h"
#include "mr/partition.h"

namespace perfbench {

using bmr::Slice;
using bmr::Status;
using bmr::StatusOr;
using bmr::mr::Record;

std::vector<std::string> PartFiles(const bmr::mr::JobResult& result) {
  std::vector<std::string> files = result.output_files;
  std::sort(files.begin(), files.end());  // part-r-NNNNN: reducer order
  return files;
}

StatusOr<OutputDigest> DigestOutput(bmr::dfs::DfsClient* client,
                                    const bmr::mr::JobResult& result) {
  OutputDigest digest;
  for (const std::string& file : PartFiles(result)) {
    BMR_ASSIGN_OR_RETURN(std::string bytes, client->ReadAll(file));
    digest.hash = (digest.hash ^ bmr::Fnv1a64(Slice(bytes))) * 0x100000001b3ull;
    digest.bytes += bytes.size();
  }
  return digest;
}

void DeleteOutput(bmr::dfs::DfsClient* client,
                  const bmr::mr::JobResult& result) {
  for (const std::string& file : result.output_files) {
    Status st = client->Delete(file);
    (void)st;  // a leftover part file only costs DFS memory
  }
}

StatusOr<std::vector<std::string>> ReadLines(
    bmr::dfs::DfsClient* client, const std::vector<std::string>& files) {
  std::vector<std::string> lines;
  for (const std::string& file : files) {
    BMR_ASSIGN_OR_RETURN(std::string text, client->ReadAll(file));
    size_t pos = 0;
    while (pos < text.size()) {
      size_t nl = text.find('\n', pos);
      if (nl == std::string::npos) nl = text.size();
      lines.emplace_back(text, pos, nl - pos);
      pos = nl + 1;
    }
  }
  return lines;
}

// ---- Batch oracles --------------------------------------------------------

StatusOr<BatchOracle> BatchOracle::WordCount(
    bmr::dfs::DfsClient* client, const std::vector<std::string>& files,
    int num_reducers) {
  BMR_ASSIGN_OR_RETURN(std::vector<std::string> lines, ReadLines(client, files));
  std::map<std::string, int64_t> counts;
  BatchOracle oracle;
  oracle.input_records_ = lines.size();
  for (const std::string& line : lines) {
    size_t pos = 0;
    while (pos < line.size()) {
      size_t end = line.find(' ', pos);
      if (end == std::string::npos) end = line.size();
      if (end > pos) ++counts[line.substr(pos, end - pos)];
      pos = end + 1;
    }
  }
  oracle.distinct_keys_ = counts.size();
  oracle.parts_.resize(num_reducers);
  for (const auto& [word, count] : counts) {
    int r = bmr::mr::HashPartition(Slice(word), num_reducers);
    oracle.parts_[r].emplace_back(word, bmr::apps::EncodeCount(count));
  }
  return oracle;
}

StatusOr<BatchOracle> BatchOracle::Sort(bmr::dfs::DfsClient* client,
                                        const std::vector<std::string>& files) {
  BMR_ASSIGN_OR_RETURN(std::vector<std::string> lines, ReadLines(client, files));
  BatchOracle oracle;
  oracle.is_sort_ = true;
  oracle.input_records_ = lines.size();
  oracle.sorted_.reserve(lines.size());
  for (const std::string& line : lines) {
    oracle.sorted_.push_back(std::stoll(line));
  }
  std::sort(oracle.sorted_.begin(), oracle.sorted_.end());
  oracle.distinct_keys_ = oracle.sorted_.empty() ? 0 : 1;
  for (size_t i = 1; i < oracle.sorted_.size(); ++i) {
    if (oracle.sorted_[i] != oracle.sorted_[i - 1]) ++oracle.distinct_keys_;
  }
  return oracle;
}

Status BatchOracle::Check(bmr::dfs::DfsClient* client,
                          const bmr::mr::JobResult& result) const {
  std::vector<std::string> files = PartFiles(result);
  if (!is_sort_ && files.size() != parts_.size()) {
    return Status::DataLoss("expected " + std::to_string(parts_.size()) +
                            " part files, got " + std::to_string(files.size()));
  }
  size_t next = 0;  // Sort: position in the sorted reference
  for (size_t r = 0; r < files.size(); ++r) {
    BMR_ASSIGN_OR_RETURN(std::vector<Record> records,
                         bmr::mr::JobRunner::ReadPartFile(client, files[r]));
    if (!is_sort_) {
      if (records != parts_[r]) {
        return Status::DataLoss("word counts differ in " + files[r]);
      }
      continue;
    }
    for (const Record& rec : records) {
      int64_t v = 0;
      if (!bmr::DecodeOrderedI64(Slice(rec.key), &v) || !rec.value.empty() ||
          next >= sorted_.size() || sorted_[next] != v) {
        return Status::DataLoss("sorted output differs at record " +
                                std::to_string(next));
      }
      ++next;
    }
  }
  if (is_sort_ && next != sorted_.size()) {
    return Status::DataLoss("sort output has " + std::to_string(next) +
                            " records, input has " +
                            std::to_string(sorted_.size()));
  }
  return Status::Ok();
}

// ---- Service-mix checks ---------------------------------------------------

OutputCheck GrepCheck(const std::vector<std::string>& lines,
                      const std::string& pattern) {
  std::vector<std::string> expected;
  for (const std::string& line : lines) {
    if (line.find(pattern) != std::string::npos) expected.push_back(line);
  }
  std::sort(expected.begin(), expected.end());
  return [expected](const std::vector<Record>& output) {
    std::vector<std::string> actual;
    for (const Record& r : output) actual.push_back(r.value);
    std::sort(actual.begin(), actual.end());
    return actual == expected ? Status::Ok()
                              : Status::DataLoss("grep matches differ");
  };
}

OutputCheck KnnCheck(const std::vector<std::string>& experimental_lines,
                     const std::vector<int64_t>& training, int k) {
  // A value drawn twice contributes every training distance twice to
  // its candidate set.
  std::map<int64_t, int> occurrences;
  for (const std::string& line : experimental_lines) {
    ++occurrences[std::stoll(line)];
  }
  std::map<int64_t, std::multiset<int64_t>> expected;
  for (const auto& [exp, times] : occurrences) {
    std::vector<int64_t> dists;
    for (int64_t t : training) dists.insert(dists.end(), times, std::llabs(exp - t));
    std::sort(dists.begin(), dists.end());
    dists.resize(std::min<size_t>(dists.size(), k));
    expected[exp] = std::multiset<int64_t>(dists.begin(), dists.end());
  }
  return [expected](const std::vector<Record>& output) {
    std::map<int64_t, std::multiset<int64_t>> actual;
    for (const Record& r : output) {
      int64_t exp = 0;
      bmr::apps::KnnNeighbor n;
      if (!bmr::DecodeOrderedI64(Slice(r.key), &exp) ||
          !bmr::apps::DecodeNeighbor(Slice(r.value), &n)) {
        return Status::DataLoss("malformed kNN record");
      }
      actual[exp].insert(n.distance);
    }
    return actual == expected ? Status::Ok()
                              : Status::DataLoss("kNN distances differ");
  };
}

OutputCheck LastFmCheck(const std::vector<std::string>& listen_lines) {
  std::map<std::string, std::set<std::string>> listeners;
  for (const std::string& line : listen_lines) {
    size_t space = line.find(' ');
    listeners[line.substr(space + 1)].insert(line.substr(0, space));
  }
  std::map<std::string, int64_t> expected;
  for (const auto& [track, users] : listeners) {
    expected[track] = static_cast<int64_t>(users.size());
  }
  return [expected](const std::vector<Record>& output) {
    std::map<std::string, int64_t> actual;
    for (const Record& r : output) {
      int64_t count = 0;
      if (!bmr::DecodeI64(Slice(r.value), &count)) {
        return Status::DataLoss("malformed Last.fm record");
      }
      actual[r.key] = count;
    }
    return actual == expected ? Status::Ok()
                              : Status::DataLoss("unique listen counts differ");
  };
}

OutputCheck BlackScholesCheck(int64_t iterations) {
  const double closed_form =
      bmr::apps::BlackScholesCallPrice(100, 100, 0.05, 0.2, 1.0);
  return [iterations, closed_form](const std::vector<Record>& output) {
    bmr::apps::BsSummary s;
    if (output.size() != 1 ||
        !bmr::apps::DecodeBsSummary(Slice(output[0].value), &s)) {
      return Status::DataLoss("expected one Black-Scholes summary");
    }
    double standard_error = s.stddev / std::sqrt(static_cast<double>(s.count));
    if (s.count != iterations || !(s.stddev > 0) ||
        std::fabs(s.mean - closed_form) > 6 * standard_error) {
      return Status::DataLoss("Black-Scholes summary out of bounds");
    }
    return Status::Ok();
  };
}

OutputCheck GeneticCheck(uint64_t population) {
  return [population](const std::vector<Record>& output) {
    if (output.size() != population) {
      return Status::DataLoss("GA offspring count differs from population");
    }
    for (const Record& r : output) {
      int64_t genome = 0, fitness = 0;
      if (!bmr::DecodeOrderedI64(Slice(r.key), &genome) ||
          !bmr::DecodeI64(Slice(r.value), &fitness) ||
          fitness != bmr::apps::GaFitness(static_cast<uint32_t>(genome))) {
        return Status::DataLoss("GA offspring with wrong fitness");
      }
    }
    return Status::Ok();
  };
}

}  // namespace perfbench
