#include "trace/collector.hpp"

#include <netdb.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <ctime>

#include "wire/ntp_packet.hpp"
#include "wire/ntp_timestamp.hpp"

namespace tscclock::trace {

namespace {

/// Monotonic nanoseconds: the collector's counter (one count = 1 ns).
TscCount monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<TscCount>(ts.tv_sec) * 1000000000ull +
         static_cast<TscCount>(ts.tv_nsec);
}

/// Wall clock as an NTP-era timestamp — used only for the request's
/// transmit field so the origin echo can be verified; never enters the
/// exchange data.
wire::NtpTimestamp realtime_ntp_now() {
  timespec ts{};
  clock_gettime(CLOCK_REALTIME, &ts);
  wire::NtpTimestamp out;
  out.seconds = static_cast<std::uint32_t>(
      static_cast<std::uint64_t>(ts.tv_sec) + wire::kNtpToUnixOffset);
  out.fraction = static_cast<std::uint32_t>(
      (static_cast<std::uint64_t>(ts.tv_nsec) << 32) / 1000000000ull);
  return out;
}

void sleep_seconds(Seconds duration) {
  if (!(duration > 0)) return;
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(duration);
  ts.tv_nsec = static_cast<long>((duration - static_cast<double>(ts.tv_sec)) *
                                 1e9);
  nanosleep(&ts, nullptr);
}

/// RAII socket.
class UdpSocket {
 public:
  UdpSocket(const std::string& host, std::uint16_t port) {
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_DGRAM;
    addrinfo* result = nullptr;
    const int rc =
        getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                    &result);
    if (rc != 0) {
      throw CollectorError("cannot resolve " + host + ": " +
                           gai_strerror(rc));
    }
    int saved_errno = 0;
    for (addrinfo* ai = result; ai != nullptr; ai = ai->ai_next) {
      fd_ = socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
      if (fd_ < 0) {
        saved_errno = errno;
        continue;
      }
      // connect() pins the peer: replies from anyone else are dropped by
      // the kernel, the cheapest possible off-path filter.
      if (connect(fd_, ai->ai_addr, ai->ai_addrlen) == 0) break;
      saved_errno = errno;
      ::close(fd_);
      fd_ = -1;
    }
    freeaddrinfo(result);
    if (fd_ < 0) {
      throw CollectorError("cannot open UDP socket to " + host + ":" +
                           std::to_string(port) + ": " +
                           std::strerror(saved_errno));
    }
  }
  ~UdpSocket() {
    if (fd_ >= 0) ::close(fd_);
  }
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  [[nodiscard]] int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

std::uint8_t poll_log2(Seconds interval) {
  const double log = std::log2(std::max(interval, 1.0));
  return static_cast<std::uint8_t>(
      std::min(std::max(std::lround(log), 0l), 17l));
}

}  // namespace

TraceMeta collector_meta(const CollectorOptions& options) {
  TraceMeta meta;
  meta.mode = harness::GroundTruthMode::kRelativeOnly;
  meta.nominal_period = collector_nominal_period();
  meta.poll_period = options.interval;
  meta.client_id = options.client_id;
  meta.label = options.label.empty()
                   ? options.host + ":" + std::to_string(options.port) +
                         " via ntp-collect"
                   : options.label;
  return meta;
}

CollectorReport collect(
    const CollectorOptions& options, TraceWriter& writer,
    const std::function<void(const std::string&)>& progress) {
  if (options.host.empty()) throw CollectorError("no server host given");
  if (options.count == 0) throw CollectorError("poll count must be positive");
  if (!(options.interval > 0)) {
    throw CollectorError("poll interval must be positive");
  }
  if (!(options.timeout > 0)) throw CollectorError("timeout must be positive");

  UdpSocket sock(options.host, options.port);
  CollectorReport report;
  const auto note = [&](const std::string& message) {
    if (progress) progress(message);
  };

  // Server stamps are rebased against the first validated reply's integer
  // second so every Tb/Te is a small double carrying the full wire
  // resolution (wire::from_ntp_timestamp_at_epoch).
  bool have_epoch = false;
  std::uint32_t epoch_era_seconds = 0;

  while (report.attempted < options.count) {
    const TscCount poll_start = monotonic_ns();
    harness::ReplaySample sample;
    sample.index = report.attempted;
    sample.client_id = options.client_id;
    ++report.attempted;

    const wire::NtpTimestamp origin = realtime_ntp_now();
    const auto request =
        wire::encode(wire::make_client_request(origin,
                                               poll_log2(options.interval)));
    const TscCount ta = monotonic_ns();
    if (send(sock.fd(), request.data(), request.size(), 0) !=
        static_cast<ssize_t>(request.size())) {
      throw CollectorError(std::string("send failed: ") +
                           std::strerror(errno));
    }

    // Wait for a validating reply until the timeout; a decodable-but-bad
    // reply is refused (the datagram may be followed by the real answer —
    // keep listening within the same budget).
    bool got = false;
    const TscCount deadline =
        ta + static_cast<TscCount>(options.timeout * 1e9);
    while (!got) {
      const TscCount now = monotonic_ns();
      if (now >= deadline) break;
      pollfd pfd{sock.fd(), POLLIN, 0};
      const int timeout_ms =
          static_cast<int>((deadline - now) / 1000000ull) + 1;
      const int ready = ::poll(&pfd, 1, timeout_ms);
      if (ready < 0) {
        if (errno == EINTR) continue;
        throw CollectorError(std::string("poll failed: ") +
                             std::strerror(errno));
      }
      if (ready == 0) break;
      std::uint8_t buffer[512];
      const ssize_t n = recv(sock.fd(), buffer, sizeof(buffer), 0);
      const TscCount tf = monotonic_ns();
      if (n < 0) {
        if (errno == EINTR || errno == EAGAIN) continue;
        throw CollectorError(std::string("recv failed: ") +
                             std::strerror(errno));
      }
      wire::NtpPacket reply;
      try {
        reply = wire::decode(
            std::span<const std::uint8_t>(buffer, static_cast<size_t>(n)));
        wire::validate_server_reply(reply, origin);
      } catch (const wire::PacketError& e) {
        const std::string what = e.what();
        if (what.find("kiss-o'-death") != std::string::npos) {
          // RFC 5905 §7.4: a KoD is an order to stop, not a bad sample.
          throw CollectorError("server sent " + what + " — aborting");
        }
        ++report.refused;
        note("poll " + std::to_string(sample.index) + ": refused reply (" +
             what + ")");
        continue;
      }
      if (!have_epoch) {
        epoch_era_seconds = reply.receive_time.seconds;
        have_epoch = true;
      }
      sample.raw.ta = ta;
      sample.raw.tb = wire::from_ntp_timestamp_at_epoch(reply.receive_time,
                                                        epoch_era_seconds);
      sample.raw.te = wire::from_ntp_timestamp_at_epoch(reply.transmit_time,
                                                        epoch_era_seconds);
      sample.raw.tf = tf;
      sample.tf_counts_corrected = tf;
      got = true;
    }

    if (got) {
      ++report.received;
      note("poll " + std::to_string(sample.index) + ": rtt " +
           std::to_string(static_cast<double>(sample.raw.tf - sample.raw.ta) /
                          1e6) +
           " ms");
    } else {
      sample.lost = true;
      ++report.lost;
      note("poll " + std::to_string(sample.index) + ": timeout (lost)");
    }
    writer.write(sample);
    // Flushed per record: a killed collection loses at most this line,
    // which read_trace then refuses as a torn tail, never half-trusts.
    writer.flush();

    if (report.attempted < options.count) {
      const Seconds elapsed =
          static_cast<double>(monotonic_ns() - poll_start) / 1e9;
      sleep_seconds(options.interval - elapsed);
    }
  }
  return report;
}

}  // namespace tscclock::trace
