#include "client.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>

namespace perfbench {

namespace {

// A reply slower than this is a failure: the benchmark never waits on a
// wedged server for the rest of its run.
constexpr int kReplyTimeoutSeconds = 30;

void SetSocketOptions(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  struct timeval tv;
  tv.tv_sec = kReplyTimeoutSeconds;
  tv.tv_usec = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

}  // namespace

bool Client::Connect() {
  text_.reset();
  binary_.reset();
  if (ever_connected_) ++reconnects_;
  ever_connected_ = true;

  bool greeted = false;
  if (wire_ == Wire::kText) {
    text_ = std::make_unique<lsd::testing_wire::TextClient>(port_);
    if (text_->connected()) {
      SetSocketOptions(text_->fd());
      auto greeting = text_->Greeting();
      greeted = greeting.ok() && greeting->ok;
    }
  } else {
    binary_ = std::make_unique<lsd::testing_wire::BinaryClient>(port_);
    if (binary_->connected()) {
      SetSocketOptions(binary_->fd());
      auto greeting = binary_->Greeting();
      greeted = greeting.ok() && greeting->ok;
    }
  }
  if (!greeted) Fail();
  return greeted;
}

Reply Client::Fail() {
  text_.reset();
  binary_.reset();
  Reply r;
  r.transport = true;
  r.body = "connection failed";
  return r;
}

Reply Client::FromFrame(const lsd::StatusOr<lsd::BinaryFrame>& frame,
                        uint64_t id) {
  if (!frame.ok() || frame->request_id != id) return Fail();
  Reply r;
  r.ok = frame->type == lsd::FrameType::kOk;
  r.body = frame->payload;
  return r;
}

Reply Client::Request(std::string_view line) {
  if (binary_ != nullptr) {
    const uint64_t id = next_id_++;
    return FromFrame(binary_->Call(id, line), id);
  }
  if (text_ == nullptr) return Fail();
  auto response = text_->Send(std::string(line));
  if (!response.ok()) return Fail();
  Reply r;
  r.ok = response->ok;
  r.body = response->ok ? std::move(response->payload)
                        : std::move(response->error);
  return r;
}

Reply Client::Mutate(const lsd::MutationOp& op) {
  if (binary_ == nullptr) return Fail();
  const uint64_t id = next_id_++;
  if (!lsd::WriteAll(binary_->fd(),
                     lsd::EncodeFrame(lsd::FrameType::kMutation, id,
                                      lsd::EncodeMutationPayload({op})))
           .ok()) {
    return Fail();
  }
  return FromFrame(binary_->ReadReply(), id);
}

}  // namespace perfbench
