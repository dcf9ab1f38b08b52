#ifndef PGHIVE_SERVICE_PROTOCOL_H_
#define PGHIVE_SERVICE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "service/session_manager.h"
#include "util/status.h"

namespace pghive::service {

/// The pghived wire protocol: line-delimited requests, optionally followed
/// by a byte-counted body. Small enough to drive with netcat, structured
/// enough to frame binary schema payloads.
///
/// Requests (one line, space-separated tokens; <n> counts body bytes that
/// follow the newline). Each connection has its own thread, and a verb runs
/// either there ("connection thread") or as a job on the session's lane,
/// which runs one job at a time in submission order ("lane job"). A session
/// publishes an immutable snapshot and one changefeed record per committed
/// batch; "published" below means state as of the latest such version.
///
///   ping
///       Connection thread; touches no session.
///   create-session [proto=N] [key=value ...]  knobs as in `pghive discover`
///       proto declares the client's protocol version (absent = 1); the
///       server rejects versions newer than kProtocolVersion with a clear
///       FailedPrecondition instead of misparsing unknown requests later.
///       threads=N is validated like the other knobs and then ignored:
///       every session runs on the daemon's one --threads pool.
///       Connection thread, under the session table's lock; the new id is
///       visible to every connection once the reply is sent.
///   ingest-batch <session> <n>  + body  one ingest payload (see assembler)
///       Connection thread enqueues a lane job and replies "OK batch <k>"
///       at once: the batch is only scheduled. It becomes visible when its
///       version is published; a failure latches into the session and
///       fails later requests.
///   get-schema <session> <form> [snapshot]
///       form: pgs | pgs-loose | xsd | describe | binary
///       default waits for the stream to finish (enqueues Finish once) and
///       returns the final schema; `snapshot` returns the latest published
///       snapshot immediately without draining the session's lane.
///       Default: the connection thread waits for the lane to drain, so it
///       sees every batch submitted before it. snapshot: connection thread,
///       published state only, never waits for the lane. Either way the
///       connection thread renders the one requested form from the
///       snapshot's schema and vocabulary copy (SnapshotForm).
///   validate <session> <strict|loose> <n>  + body (a PG-Schema text)
///       Lane job; the connection thread waits for it. Sees the graph after
///       every batch submitted before it, and parses against a copy of the
///       vocabulary, so it changes nothing.
///   subscribe-changefeed <session> <after-version> [timeout-ms]
///       long-polls for schema-diff records with version > after-version;
///       the body is a core::ParseSchemaDiffStream byte stream (empty on
///       timeout). When the daemon runs with --checkpoint-dir, versions
///       older than the in-memory backlog are served from the session's
///       feed segment file instead of OutOfRange. Connection thread; sees
///       published versions only, and waits for the next one at most
///       timeout-ms (capped at 30 s).
///   session-info <session>              "OK session <id> batches <k>" for
///                                       an existing session — how a client
///                                       resumes against a daemon that
///                                       restored the session from its own
///                                       checkpoint
///       Connection thread; k counts batches accepted, committed or not.
///       After a restart it is the snapshot's count: the client re-sends
///       every later batch.
///   close <session>
///       Connection thread; removes the id at once, then waits for the
///       session's queued jobs and deletes its files under --checkpoint-dir.
///
/// Responses:
///
///   OK <tokens...>                          e.g. "OK session s1", "OK batch 3"
///   OK <tokens...> body <n>\n<n bytes>\n    body-carrying variants
///   ERR <CODE> <escaped message>            code from util::StatusCodeName;
///                                           message escaped like pg fields

/// The protocol version this build speaks. Version history:
///   1 — initial protocol (create/ingest/get-schema/validate/close).
///   2 — adds proto= handshake, save-state, load-state, subscribe-changefeed.
///   3 — adds session-info; subscribe-changefeed can serve pre-backlog
///       versions from the daemon's checkpoint-dir feed segments.
///   4 — drops save-state and load-state (they answer "unknown command"):
///       with --checkpoint-dir the daemon owns every session's durability.
constexpr uint32_t kProtocolVersion = 4;
struct Request {
  std::string command;
  std::vector<std::string> args;  ///< Tokens after the command.
  std::string body;               ///< Filled by the transport when expected.
};

struct Response {
  util::Status status;     ///< Non-OK renders as an ERR line.
  std::string info;        ///< OK tokens ("session s1", "pong", ...).
  bool has_body = false;
  std::string body;
};

/// Renders one form of a published snapshot: pgs (or empty), pgs-loose,
/// xsd, describe or binary; InvalidArgument for anything else. Reads only
/// the snapshot, so any thread may call it while the session ingests.
util::StatusOr<std::string> SnapshotForm(const SchemaSnapshot& snapshot,
                                         const std::string& form);

/// Splits a request line into command + args. Empty lines are invalid.
util::StatusOr<Request> ParseRequestLine(const std::string& line);

/// Body bytes the transport must read after the request line (0 for
/// body-less commands). Fails on a malformed or oversized count.
util::StatusOr<size_t> RequestBodyBytes(const Request& request);

/// Renders a response to wire form (including the trailing newline(s)).
std::string FormatResponse(const Response& response);

/// Parses the first response line (without newline) into `response`; for
/// body-carrying responses sets has_body and returns the byte count via
/// `body_bytes` so the transport can read the remainder. An ERR line keeps
/// its code and message; a code name this build does not know reads as
/// INTERNAL.
util::Status ParseResponseLine(const std::string& line, Response* response,
                               size_t* body_bytes);

/// Executes requests against a SessionManager. Transport-independent: the
/// TCP server, tests, and any future transport all dispatch through here.
class RequestHandler {
 public:
  explicit RequestHandler(SessionManager* manager) : manager_(manager) {}

  Response Handle(const Request& request);

 private:
  Response HandleCreateSession(const Request& request);
  Response HandleIngestBatch(const Request& request);
  Response HandleGetSchema(const Request& request);
  Response HandleValidate(const Request& request);
  Response HandleSessionInfo(const Request& request);
  Response HandleSubscribeChangefeed(const Request& request);
  Response HandleClose(const Request& request);

  SessionManager* manager_;
};

}  // namespace pghive::service

#endif  // PGHIVE_SERVICE_PROTOCOL_H_
