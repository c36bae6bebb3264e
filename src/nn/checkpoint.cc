#include "nn/checkpoint.h"

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <unordered_map>

#include "common/crc32.h"
#include "common/failpoint.h"
#include "common/serialize.h"
#include "common/string_util.h"
#include "tensor/matrix.h"

namespace groupsa::nn {
namespace {

constexpr uint32_t kMagicV2 = 0x32505347;  // "GSP2" little-endian
constexpr uint32_t kMagicV1 = 0x41505347;  // "GSPA" — the legacy format
constexpr uint32_t kVersion = 2;
constexpr size_t kWriteChunk = 64 * 1024;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

// Writes `bytes` in chunks, consulting the "checkpoint.write" failpoint per
// chunk so fault-injection tests can produce genuinely partial files.
Status WriteChunked(std::FILE* f, const std::string& bytes,
                    const std::string& path) {
  for (size_t off = 0; off < bytes.size(); off += kWriteChunk) {
    const size_t n = std::min(kWriteChunk, bytes.size() - off);
    const failpoint::Action action = GROUPSA_FAILPOINT("checkpoint.write");
    if (action == failpoint::Action::kError)
      return Status::Error("injected write failure: " + path);
    if (action == failpoint::Action::kCorrupt) {
      // Flip one bit of this chunk: the CRC tiers must catch it at load.
      std::string corrupted = bytes.substr(off, n);
      corrupted[corrupted.size() / 2] ^= 0x10;
      if (std::fwrite(corrupted.data(), 1, n, f) != n)
        return Status::Error("write failed: " + path);
      continue;
    }
    if (std::fwrite(bytes.data() + off, 1, n, f) != n)
      return Status::Error("write failed: " + path);
  }
  return Status::Ok();
}

}  // namespace

void CheckpointWriter::AddSection(const std::string& name,
                                  std::string payload) {
  sections_.emplace_back(name, std::move(payload));
}

Status CheckpointWriter::Commit(const std::string& path) const {
  // Assemble the whole file in memory first: the on-disk write is then a
  // single sequential pass whose only interleavings are torn prefixes, all
  // of which the trailer CRC rejects.
  ByteWriter out;
  out.WriteU32(kMagicV2);
  out.WriteU32(kVersion);
  out.WriteU32(static_cast<uint32_t>(sections_.size()));
  for (const auto& [name, payload] : sections_) {
    out.WriteString(name);
    out.WriteU64(payload.size());
    out.WriteU32(Crc32Of(payload.data(), payload.size()));
    out.WriteRaw(payload);
  }
  const uint32_t file_crc = Crc32Of(out.bytes().data(), out.bytes().size());
  out.WriteU32(file_crc);
  const std::string bytes = out.Release();

  const std::string tmp = path + ".tmp";
  {
    FilePtr f(std::fopen(tmp.c_str(), "wb"));
    if (f == nullptr)
      return Status::Error("cannot open for write: " + tmp);
    if (Status s = WriteChunked(f.get(), bytes, tmp); !s.ok()) {
      std::remove(tmp.c_str());
      return s;
    }
    if (std::fflush(f.get()) != 0) {
      std::remove(tmp.c_str());
      return Status::Error("flush failed: " + tmp);
    }
    if (GROUPSA_FAILPOINT("checkpoint.fsync") == failpoint::Action::kError) {
      std::remove(tmp.c_str());
      return Status::Error("injected fsync failure: " + tmp);
    }
    if (fsync(fileno(f.get())) != 0) {
      std::remove(tmp.c_str());
      return Status::Error("fsync failed: " + tmp);
    }
  }
  if (GROUPSA_FAILPOINT("checkpoint.rename") == failpoint::Action::kError) {
    std::remove(tmp.c_str());
    return Status::Error("injected rename failure: " + path);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Error("rename failed: " + tmp + " -> " + path);
  }
  return Status::Ok();
}

Status CheckpointReader::Read(const std::string& path, CheckpointReader* out) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) return Status::Error("cannot open for read: " + path);
  std::string bytes;
  {
    char buf[64 * 1024];
    size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f.get())) > 0)
      bytes.append(buf, n);
    if (std::ferror(f.get()))
      return Status::Error("read failed: " + path);
  }
  // Trailer CRC first: a file whose every byte is accounted for cannot be a
  // torn prefix, so all further parsing works on verified data.
  if (bytes.size() < 4 * sizeof(uint32_t))
    return Status::Error("truncated checkpoint (too small): " + path);
  const size_t body_len = bytes.size() - sizeof(uint32_t);
  uint32_t stored_file_crc = 0;
  {
    ByteReader trailer(bytes.data() + body_len, sizeof(uint32_t));
    trailer.ReadU32(&stored_file_crc);
  }
  if (Crc32Of(bytes.data(), body_len) != stored_file_crc)
    return Status::Error("checkpoint file CRC mismatch (torn write or bit "
                         "rot): " + path);

  ByteReader reader(bytes.data(), body_len);
  uint32_t magic = 0;
  uint32_t version = 0;
  uint32_t num_sections = 0;
  if (!reader.ReadU32(&magic))
    return Status::Error("truncated checkpoint header: " + path);
  if (magic == kMagicV1)
    return Status::Error(
        "legacy v1 checkpoint (magic GSPA) is no longer supported; re-save "
        "with this build: " + path);
  if (magic != kMagicV2)
    return Status::Error("bad checkpoint magic: " + path);
  if (!reader.ReadU32(&version) || version != kVersion)
    return Status::Error(
        StrFormat("unsupported checkpoint version %u (expected %u): %s",
                  version, kVersion, path.c_str()));
  if (!reader.ReadU32(&num_sections))
    return Status::Error("truncated checkpoint header: " + path);

  std::vector<std::pair<std::string, std::string>> sections;
  for (uint32_t i = 0; i < num_sections; ++i) {
    std::string name;
    uint64_t payload_len = 0;
    uint32_t payload_crc = 0;
    if (!reader.ReadString(&name) || !reader.ReadU64(&payload_len) ||
        !reader.ReadU32(&payload_crc) || payload_len > reader.Remaining()) {
      return Status::Error(
          StrFormat("truncated section directory (section %u): %s", i,
                    path.c_str()));
    }
    std::string payload;
    if (!reader.ReadRaw(payload_len, &payload))
      return Status::Error(
          StrFormat("truncated section payload '%s': %s", name.c_str(),
                    path.c_str()));
    if (Crc32Of(payload.data(), payload.size()) != payload_crc)
      return Status::Error(
          StrFormat("section '%s' CRC mismatch: %s", name.c_str(),
                    path.c_str()));
    sections.emplace_back(std::move(name), std::move(payload));
  }
  out->sections_ = std::move(sections);
  return Status::Ok();
}

bool CheckpointReader::Has(const std::string& name) const {
  return Find(name) != nullptr;
}

const std::string* CheckpointReader::Find(const std::string& name) const {
  for (const auto& [section_name, payload] : sections_)
    if (section_name == name) return &payload;
  return nullptr;
}

std::string EncodeParameters(const std::vector<ParamEntry>& params) {
  ByteWriter out;
  out.WriteU32(static_cast<uint32_t>(params.size()));
  for (const ParamEntry& p : params) {
    const tensor::Matrix& m = p.tensor->value();
    ByteWriter record;
    record.WriteString(p.name);
    record.WriteU32(static_cast<uint32_t>(m.rows()));
    record.WriteU32(static_cast<uint32_t>(m.cols()));
    record.WriteFloats(m.data(), static_cast<size_t>(m.size()));
    const std::string& bytes = record.bytes();
    out.WriteU32(Crc32Of(bytes.data(), bytes.size()));
    out.WriteU64(bytes.size());
    out.WriteRaw(bytes);
  }
  return out.Release();
}

Status DecodeParameters(const std::vector<ParamEntry>& params,
                        const std::string& payload) {
  ByteReader reader(payload);
  uint32_t count = 0;
  if (!reader.ReadU32(&count))
    return Status::Error("truncated params section");

  std::unordered_map<std::string, const ParamEntry*> by_name;
  for (const ParamEntry& p : params) by_name[p.name] = &p;

  // Stage 1: parse and validate every record into local storage. The live
  // model is not touched until every record checked out.
  struct Staged {
    const ParamEntry* entry;
    tensor::Matrix value;
  };
  std::vector<Staged> staged;
  staged.reserve(count);
  std::unordered_map<std::string, bool> seen;
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t record_crc = 0;
    uint64_t record_len = 0;
    if (!reader.ReadU32(&record_crc) || !reader.ReadU64(&record_len) ||
        record_len > reader.Remaining()) {
      return Status::Error(
          StrFormat("truncated parameter record %u of %u", i, count));
    }
    const size_t pos = reader.Position();
    if (Crc32Of(payload.data() + pos, record_len) != record_crc)
      return Status::Error(
          StrFormat("parameter record %u CRC mismatch", i));
    ByteReader record(payload.data() + pos, record_len);
    reader.Skip(record_len);  // bounds already checked above

    std::string name;
    uint32_t rows = 0;
    uint32_t cols = 0;
    if (!record.ReadString(&name) || !record.ReadU32(&rows) ||
        !record.ReadU32(&cols)) {
      return Status::Error(
          StrFormat("malformed parameter record %u of %u", i, count));
    }
    auto it = by_name.find(name);
    if (it == by_name.end())
      return Status::Error("unknown parameter in checkpoint: " + name);
    if (seen[name])
      return Status::Error("duplicate parameter in checkpoint: " + name);
    seen[name] = true;
    const tensor::Matrix& live = it->second->tensor->value();
    if (live.rows() != static_cast<int>(rows) ||
        live.cols() != static_cast<int>(cols)) {
      return Status::Error(StrFormat(
          "shape mismatch for %s: file %ux%u vs model %dx%d", name.c_str(),
          rows, cols, live.rows(), live.cols()));
    }
    tensor::Matrix value(static_cast<int>(rows), static_cast<int>(cols));
    if (!record.ReadFloats(value.data(), static_cast<size_t>(value.size())))
      return Status::Error("truncated parameter data for " + name);
    // A CRC only proves the bytes arrived as written; a diverged run can
    // write a NaN faithfully. Non-finite weights would serve silently wrong
    // (or undefined) rankings, so they are rejected like corruption.
    GROUPSA_RETURN_IF_ERROR(CheckFinite(value, name));
    staged.push_back({it->second, std::move(value)});
  }
  if (staged.size() != params.size()) {
    std::vector<std::string> missing;
    for (const ParamEntry& p : params)
      if (!seen[p.name]) missing.push_back(p.name);
    return Status::Error(StrFormat(
        "checkpoint holds %zu of %zu parameters (missing: %s)", staged.size(),
        params.size(), StrJoin(missing, ", ").c_str()));
  }

  // Stage 2: commit. Nothing below can fail.
  for (Staged& s : staged)
    s.entry->tensor->mutable_value() = std::move(s.value);
  return Status::Ok();
}

Status SaveParameters(const std::vector<ParamEntry>& params,
                      const std::string& path) {
  CheckpointWriter writer;
  writer.AddSection("params", EncodeParameters(params));
  return writer.Commit(path).WithContext("save checkpoint " + path);
}

Status CheckFinite(const tensor::Matrix& value, const std::string& name) {
  for (int j = 0; j < value.size(); ++j) {
    if (!std::isfinite(value.data()[j])) {
      return Status::Error(StrFormat(
          "non-finite value %g in parameter %s at (%d, %d)",
          static_cast<double>(value.data()[j]), name.c_str(),
          j / value.cols(), j % value.cols()));
    }
  }
  return Status::Ok();
}

Status LoadParameters(const std::vector<ParamEntry>& params,
                      const std::string& path) {
  CheckpointReader reader;
  GROUPSA_RETURN_IF_ERROR_CTX(CheckpointReader::Read(path, &reader),
                              "load checkpoint " + path);
  const std::string* payload = reader.Find("params");
  if (payload == nullptr)
    return Status::Error("checkpoint has no params section: " + path);
  return DecodeParameters(params, *payload)
      .WithContext("load checkpoint " + path);
}

}  // namespace groupsa::nn
