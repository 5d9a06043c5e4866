// io_binary.h — compact binary dataset format.
//
// CSV is the interchange format; at §VI.C scales (10k–1M trajectories) a
// compact binary format matters. Layout ("SVQT" magic, version 1,
// little-endian):
//   header:  magic u32, version u32, arenaRadius f32, trajectoryCount u32
//   per trajectory: id u32, side u8, direction u8, seed u8, pointCount u32,
//                   then pointCount * (t f32, x f32, y f32)
// Round-trips exactly (bit-identical floats).
#pragma once

#include <optional>
#include <string>

#include "traj/dataset.h"
#include "util/message.h"

namespace svq::traj {

/// Serializes the dataset to the binary format.
util::MessageBuffer toBinary(const TrajectoryDataset& dataset);

/// Parses the binary format; nullopt on wrong magic/version/truncation,
/// trailing bytes, or count fields larger than the payload could possibly
/// hold (the parser never allocates more than O(bytes.size())). Takes the
/// buffer by value so a caller that read it can move it in uncopied.
std::optional<TrajectoryDataset> fromBinary(util::MessageBuffer bytes);

/// File convenience wrappers.
bool saveBinary(const TrajectoryDataset& dataset, const std::string& path);
std::optional<TrajectoryDataset> loadBinary(const std::string& path);

}  // namespace svq::traj
