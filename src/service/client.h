#ifndef PGHIVE_SERVICE_CLIENT_H_
#define PGHIVE_SERVICE_CLIENT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "pg/graph.h"
#include "service/net.h"
#include "service/protocol.h"
#include "util/status.h"

namespace pghive::service {

/// Splits `graph` the way the one-shot CLI does (FullBatch for
/// num_batches <= 1, SplitIntoBatches(graph, n, seed) otherwise) and renders
/// each batch as a pghived ingest payload. Payload 1 carries the graph-size
/// header and the vocabulary preamble; later payloads carry only records.
/// Reference (R) records materialize edge endpoints ahead of their own
/// batch; membership (M) markers restore those nodes to the batch that owns
/// them. Streaming these payloads in order reproduces the one-shot
/// discovery byte for byte.
std::vector<std::string> BuildIngestPayloads(const pg::PropertyGraph& graph,
                                             size_t num_batches,
                                             uint64_t seed = 1);

/// A blocking pghived client: one TCP connection, one request in flight.
class PghivedClient {
 public:
  static util::StatusOr<PghivedClient> Connect(uint16_t port);

  util::Status Ping();

  /// Returns the new session id. Knobs use the `pghive discover` names
  /// (threads, method, seed, ...).
  util::StatusOr<std::string> CreateSession(
      const std::map<std::string, std::string>& option_flags);

  /// Returns the batch sequence number the server assigned.
  util::StatusOr<uint64_t> IngestBatch(const std::string& session,
                                       const std::string& payload);

  /// form: pgs | pgs-loose | xsd | describe | binary. With snapshot=false
  /// the server finishes the stream and returns the final schema.
  util::StatusOr<std::string> GetSchema(const std::string& session,
                                        const std::string& form = "pgs",
                                        bool snapshot = false);

  util::StatusOr<ValidationResult> Validate(const std::string& session,
                                            bool strict,
                                            const std::string& pgs_text);

  /// An existing session's id and how many batches it already holds (the
  /// client skips that many payloads on resume).
  struct RestoredSession {
    std::string id;
    uint64_t batches = 0;
  };

  /// Looks up an existing session's id and batch count — the resume
  /// handshake against a daemon that restored the session from its own
  /// checkpoint dir.
  util::StatusOr<RestoredSession> SessionInfo(const std::string& session);

  /// Long-polls the session's schema changefeed; returns concatenated
  /// core::SchemaDiff records with version > after_version (empty string if
  /// `timeout_ms` elapsed first). Parse with core::ParseSchemaDiffStream.
  util::StatusOr<std::string> SubscribeChangefeed(const std::string& session,
                                                  uint64_t after_version,
                                                  uint64_t timeout_ms);

  util::Status CloseSession(const std::string& session);

 private:
  explicit PghivedClient(SocketStream stream) : stream_(std::move(stream)) {}

  /// Sends `line` (plus optional body) and reads the full response.
  util::StatusOr<Response> RoundTrip(const std::string& line,
                                     const std::string& body = "");

  SocketStream stream_;
};

}  // namespace pghive::service

#endif  // PGHIVE_SERVICE_CLIENT_H_
