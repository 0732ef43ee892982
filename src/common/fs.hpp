// Crash-safe filesystem primitives.
//
// Detector checkpoints are rewritten while the service is live; an
// overwrite-in-place interrupted by SIGKILL (or a full disk) would leave a
// truncated file that can neither be loaded nor distinguished from
// corruption. atomic_write_file gives the standard durability contract
// instead: the bytes land in a sibling temp file, are fsync'ed, and are
// renamed over the destination in one atomic step, so a reader at any
// point in time sees either the complete old content or the complete new
// content — never a torn mixture.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace advh {

/// The temp-file suffix atomic_write_file stages through (visible so
/// cleanup tooling and tests can recognise abandoned staging files).
inline constexpr const char* kAtomicTmpSuffix = ".tmp";

/// Atomically replaces (or creates) `path` with `bytes`: write to
/// `path + kAtomicTmpSuffix`, flush + fsync, rename over `path`, fsync
/// the parent directory and every ancestor directory this call created
/// (a fresh checkpoint tree must survive power loss as a unit). Parent
/// directories are created when missing. A
/// stale temp file from an earlier crash is silently overwritten. Throws
/// advh::io_error when any step fails; on failure the destination is left
/// untouched (the temp file may remain and will be reused next time).
void atomic_write_file(const std::string& path, std::string_view bytes);

/// CRC32C (Castagnoli, polynomial 0x1EDC6F41 reflected) over `bytes`,
/// continuing from `crc` so checksums can be computed incrementally:
/// crc32c(b, crc32c(a)) == crc32c(a + b). Portable table-driven software
/// implementation — every byte order produces the same value on every
/// platform, which is what makes the on-disk checksum trailers
/// byte-stable.
std::uint32_t crc32c(std::string_view bytes, std::uint32_t crc = 0);

/// Reads the whole file at `path` into a string. Throws advh::io_error
/// when the file does not exist or cannot be read.
std::string read_file_bytes(const std::string& path);

}  // namespace advh
