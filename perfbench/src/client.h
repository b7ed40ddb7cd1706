// A blocking, closed-loop client for one server connection: it sends a
// request and waits for its reply before sending the next. Text
// connections speak the line protocol; binary connections send kRequest
// frames (window 1) and kMutation frames for single-fact writes. The
// socket and frame handling is the repository's own test wire client
// (tests/server/wire_client.h); this class adds reply timeouts,
// reconnects and their count.
#ifndef PERFBENCH_CLIENT_H_
#define PERFBENCH_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "server/protocol.h"
#include "tests/server/wire_client.h"

namespace perfbench {

enum class Wire { kText, kBinary };

struct Reply {
  bool ok = false;         // server answered OK
  bool transport = false;  // the connection failed (no server answer)
  std::string body;        // payload on OK, error message on ERR
};

class Client {
 public:
  Client(uint16_t port, Wire wire) : port_(port), wire_(wire) {}

  // Connects (or reconnects) and consumes the greeting. A reconnect
  // opens a new server session: trail and hypotheticals are gone.
  bool Connect();
  uint64_t reconnects() const { return reconnects_; }

  // One request line (text line or kRequest frame).
  Reply Request(std::string_view line);
  // One single-fact write as a kMutation frame (binary only).
  Reply Mutate(const lsd::MutationOp& op);

 private:
  Reply Fail();
  Reply FromFrame(const lsd::StatusOr<lsd::BinaryFrame>& frame, uint64_t id);

  uint16_t port_;
  Wire wire_;
  bool ever_connected_ = false;
  uint64_t reconnects_ = 0;
  uint64_t next_id_ = 1;
  std::unique_ptr<lsd::testing_wire::TextClient> text_;
  std::unique_ptr<lsd::testing_wire::BinaryClient> binary_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H_
