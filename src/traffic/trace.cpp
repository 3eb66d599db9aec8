#include "traffic/trace.hpp"

#include <fstream>
#include <limits>
#include <stdexcept>

#include "telemetry/packet_trace.hpp"

namespace dfsim {

void write_trace(const std::string& path,
                 const std::vector<TraceRecord>& records) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("trace: cannot open for write: " + path);
  out.write(kTrafficTraceMagic.data(), kTrafficTraceMagic.size());
  const std::uint64_t count = records.size();
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  if (count > 0) {
    out.write(reinterpret_cast<const char*>(records.data()),
              static_cast<std::streamsize>(count * sizeof(TraceRecord)));
  }
  if (!out) throw std::runtime_error("trace: write failed: " + path);
}

namespace {

// Checks magic and count-vs-file-size, leaving `in` positioned at the first
// record. A corrupt header raises the documented runtime_error instead of
// length_error/bad_alloc from a garbage-sized vector.
std::uint64_t read_and_check_header(std::ifstream& in,
                                    const std::string& path) {
  if (!in) throw std::runtime_error("trace: cannot open: " + path);
  char magic[8] = {};
  in.read(magic, sizeof(magic));
  if (!in || std::string_view(magic, 8) != kTrafficTraceMagic) {
    throw std::runtime_error(
        std::string_view(magic, 8) == telemetry::kPacketTraceMagic
            ? "trace: " + path + " is a packet-event trace (DFPKTEV1), " +
                  "not a traffic trace (DFTRACE1)"
            : "trace: bad magic in " + path);
  }
  std::uint64_t count = 0;
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  if (!in) throw std::runtime_error("trace: truncated header in " + path);
  const std::streampos data_begin = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streampos data_end = in.tellg();
  in.seekg(data_begin);
  if (count > (std::numeric_limits<std::uint64_t>::max)() /
                  sizeof(TraceRecord) ||
      data_begin < 0 || data_end < data_begin ||
      static_cast<std::uint64_t>(data_end - data_begin) !=
          count * sizeof(TraceRecord)) {
    throw std::runtime_error("trace: record count does not match file size: " +
                             path);
  }
  return count;
}

}  // namespace

std::uint64_t validate_trace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return read_and_check_header(in, path);
}

std::vector<TraceRecord> read_trace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::uint64_t count = read_and_check_header(in, path);
  std::vector<TraceRecord> records(count);
  if (count > 0) {
    in.read(reinterpret_cast<char*>(records.data()),
            static_cast<std::streamsize>(count * sizeof(TraceRecord)));
    if (!in) throw std::runtime_error("trace: truncated records in " + path);
  }
  return records;
}

}  // namespace dfsim
