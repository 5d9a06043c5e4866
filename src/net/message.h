// message.h — the cluster protocol's byte codec.
//
// Scene models, events and framebuffer tiles travel between ranks as
// MessageBuffers. The codec itself lives in util/message.h, shared with
// every on-disk format; the net layer names it here.
#pragma once

#include "util/message.h"

namespace svq::net {

using util::MessageBuffer;
using util::MessageError;

}  // namespace svq::net
