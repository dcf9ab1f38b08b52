#include "service/protocol.h"

#include <limits>
#include <map>
#include <sstream>
#include <utility>

#include "core/serialize.h"
#include "pg/graph_io.h"
#include "util/parse.h"

namespace pghive::service {

namespace {

/// Upper bound on a request body; a defensive limit so a corrupt length
/// prefix cannot make the server buffer gigabytes.
constexpr size_t kMaxBodyBytes = size_t{1} << 31;  // 2 GiB

Response ErrorResponse(util::Status status) {
  Response response;
  response.status = std::move(status);
  return response;
}

Response OkResponse(std::string info) {
  Response response;
  response.info = std::move(info);
  return response;
}

Response BodyResponse(std::string info, std::string body) {
  Response response;
  response.info = std::move(info);
  response.has_body = true;
  response.body = std::move(body);
  return response;
}

// The code an ERR line names, as FormatResponse wrote it; INTERNAL names
// itself, and so does any name this build does not know.
util::StatusCode CodeNamed(const std::string& name) {
  for (auto code = util::StatusCode::kInvalidArgument;
       code != util::StatusCode::kInternal;
       code = static_cast<util::StatusCode>(static_cast<int>(code) + 1)) {
    if (name == util::StatusCodeName(code)) return code;
  }
  return util::StatusCode::kInternal;
}

}  // namespace

util::StatusOr<std::string> SnapshotForm(const SchemaSnapshot& snapshot,
                                         const std::string& form) {
  const core::SchemaGraph& schema = *snapshot.schema;
  if (form.empty() || form == "pgs") {
    return core::SerializePgSchema(schema, snapshot.vocab,
                                   core::SchemaMode::kStrict);
  }
  if (form == "pgs-loose") {
    return core::SerializePgSchema(schema, snapshot.vocab,
                                   core::SchemaMode::kLoose);
  }
  if (form == "xsd") return core::SerializeXsd(schema, snapshot.vocab);
  if (form == "describe") return core::DescribeSchema(schema, snapshot.vocab);
  if (form == "binary") return core::SerializeSchemaBinary(schema);
  return util::Status::InvalidArgument(
      "unknown schema form '" + form +
      "' (want pgs, pgs-loose, xsd, describe, or binary)");
}

util::StatusOr<Request> ParseRequestLine(const std::string& line) {
  std::istringstream ls(line);
  Request request;
  if (!(ls >> request.command)) {
    return util::Status::ParseError("empty request");
  }
  std::string token;
  while (ls >> token) request.args.push_back(std::move(token));
  return request;
}

util::StatusOr<size_t> RequestBodyBytes(const Request& request) {
  if (request.command != "ingest-batch" && request.command != "validate") {
    return size_t{0};
  }
  if (request.args.empty()) {
    return util::Status::ParseError(request.command +
                                    " needs a trailing byte count");
  }
  auto bytes = util::ParseInt64InRange(
      request.args.back(), 0, static_cast<int64_t>(kMaxBodyBytes),
      request.command + " body bytes");
  if (!bytes.ok()) return bytes.status();
  return static_cast<size_t>(*bytes);
}

std::string FormatResponse(const Response& response) {
  std::string out;
  if (!response.status.ok()) {
    out = "ERR ";
    out += util::StatusCodeName(response.status.code());
    out += ' ';
    out += pg::EscapeField(response.status.message());
    out += '\n';
    return out;
  }
  out = "OK " + response.info;
  if (response.has_body) {
    out += " body " + std::to_string(response.body.size()) + "\n";
    out += response.body;
  }
  out += '\n';
  return out;
}

util::Status ParseResponseLine(const std::string& line, Response* response,
                               size_t* body_bytes) {
  *body_bytes = 0;
  std::istringstream ls(line);
  std::string tag;
  if (!(ls >> tag)) return util::Status::ParseError("empty response");
  if (tag == "ERR") {
    std::string code;
    ls >> code;
    std::string message;
    std::getline(ls, message);
    if (!message.empty() && message[0] == ' ') message.erase(0, 1);
    response->status =
        util::Status(CodeNamed(code), pg::UnescapeField(message));
    return util::Status::Ok();
  }
  if (tag != "OK") {
    return util::Status::ParseError("bad response line '" + line + "'");
  }
  std::vector<std::string> tokens;
  std::string token;
  while (ls >> token) tokens.push_back(token);
  if (tokens.size() >= 2 && tokens[tokens.size() - 2] == "body") {
    auto bytes = util::ParseInt64InRange(tokens.back(), 0,
                                         static_cast<int64_t>(kMaxBodyBytes),
                                         "response body bytes");
    if (!bytes.ok()) return bytes.status();
    *body_bytes = static_cast<size_t>(*bytes);
    response->has_body = true;
    tokens.resize(tokens.size() - 2);
  }
  response->status = util::Status::Ok();
  response->info.clear();
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (i) response->info += ' ';
    response->info += tokens[i];
  }
  return util::Status::Ok();
}

Response RequestHandler::Handle(const Request& request) {
  if (request.command == "ping") return OkResponse("pong");
  if (request.command == "create-session") {
    return HandleCreateSession(request);
  }
  if (request.command == "ingest-batch") return HandleIngestBatch(request);
  if (request.command == "get-schema") return HandleGetSchema(request);
  if (request.command == "validate") return HandleValidate(request);
  if (request.command == "session-info") return HandleSessionInfo(request);
  if (request.command == "subscribe-changefeed") {
    return HandleSubscribeChangefeed(request);
  }
  if (request.command == "close") return HandleClose(request);
  return ErrorResponse(util::Status::InvalidArgument(
      "unknown command '" + request.command + "'"));
}

Response RequestHandler::HandleCreateSession(const Request& request) {
  std::map<std::string, std::string> flags;
  for (const std::string& arg : request.args) {
    size_t eq = arg.find('=');
    if (eq == std::string::npos || eq == 0) {
      return ErrorResponse(util::Status::InvalidArgument(
          "create-session arguments are key=value, got '" + arg + "'"));
    }
    flags[arg.substr(0, eq)] = arg.substr(eq + 1);
  }
  // The proto= handshake is protocol plumbing, not a discovery knob: strip
  // it before the shared options parser (which rejects unknown keys) and
  // refuse clients from the future with a message that names both versions.
  auto proto = flags.find("proto");
  if (proto != flags.end()) {
    auto version = util::ParseInt64InRange(proto->second, 1,
                                           std::numeric_limits<int64_t>::max(),
                                           "proto");
    if (!version.ok()) return ErrorResponse(version.status());
    if (static_cast<uint64_t>(*version) > kProtocolVersion) {
      return ErrorResponse(util::Status::FailedPrecondition(
          "client speaks protocol " + proto->second +
          " but this pghived supports up to " +
          std::to_string(kProtocolVersion) + "; upgrade the server"));
    }
    flags.erase(proto);
  }
  auto session = manager_->CreateSession(flags);
  if (!session.ok()) return ErrorResponse(session.status());
  return OkResponse("session " + (*session)->id() + " proto " +
                    std::to_string(kProtocolVersion));
}

Response RequestHandler::HandleIngestBatch(const Request& request) {
  if (request.args.size() != 2) {
    return ErrorResponse(util::Status::InvalidArgument(
        "usage: ingest-batch <session> <bytes>"));
  }
  auto session = manager_->Lookup(request.args[0]);
  if (!session.ok()) return ErrorResponse(session.status());
  auto seq = (*session)->SubmitIngest(request.body);
  if (!seq.ok()) return ErrorResponse(seq.status());
  return OkResponse("batch " + std::to_string(*seq));
}

Response RequestHandler::HandleGetSchema(const Request& request) {
  if (request.args.empty() || request.args.size() > 3) {
    return ErrorResponse(util::Status::InvalidArgument(
        "usage: get-schema <session> [form] [snapshot]"));
  }
  auto session = manager_->Lookup(request.args[0]);
  if (!session.ok()) return ErrorResponse(session.status());
  std::string form = request.args.size() > 1 ? request.args[1] : "pgs";
  const bool want_snapshot =
      !request.args.empty() && request.args.back() == "snapshot";
  if (request.args.size() == 2 && want_snapshot) form = "pgs";

  std::shared_ptr<const SchemaSnapshot> snapshot;
  if (want_snapshot) {
    snapshot = (*session)->Snapshot();
    if (snapshot == nullptr) {
      return ErrorResponse(util::Status::FailedPrecondition(
          "no snapshot yet: no batch has committed"));
    }
  } else {
    auto final_snapshot = (*session)->FinalSnapshot();
    if (!final_snapshot.ok()) return ErrorResponse(final_snapshot.status());
    snapshot = *final_snapshot;
  }
  auto body = SnapshotForm(*snapshot, form);
  if (!body.ok()) return ErrorResponse(body.status());
  std::string info = "schema " + std::string(snapshot->is_final ? "final"
                                                                : "snapshot") +
                     " version " + std::to_string(snapshot->version) +
                     " batches " + std::to_string(snapshot->batches);
  return BodyResponse(std::move(info), *std::move(body));
}

Response RequestHandler::HandleValidate(const Request& request) {
  if (request.args.size() != 3 ||
      (request.args[1] != "strict" && request.args[1] != "loose")) {
    return ErrorResponse(util::Status::InvalidArgument(
        "usage: validate <session> <strict|loose> <bytes>"));
  }
  auto session = manager_->Lookup(request.args[0]);
  if (!session.ok()) return ErrorResponse(session.status());
  auto result = (*session)->Validate(request.body, request.args[1] == "strict");
  if (!result.ok()) return ErrorResponse(result.status());
  return BodyResponse(result->conforms ? "valid" : "invalid",
                      result->report);
}

Response RequestHandler::HandleSessionInfo(const Request& request) {
  if (request.args.size() != 1) {
    return ErrorResponse(
        util::Status::InvalidArgument("usage: session-info <session>"));
  }
  auto session = manager_->Lookup(request.args[0]);
  if (!session.ok()) return ErrorResponse(session.status());
  // The batch count tells a resuming client how many payloads to skip.
  return OkResponse("session " + (*session)->id() + " batches " +
                    std::to_string((*session)->batches_ingested()));
}

Response RequestHandler::HandleSubscribeChangefeed(const Request& request) {
  if (request.args.size() < 2 || request.args.size() > 3) {
    return ErrorResponse(util::Status::InvalidArgument(
        "usage: subscribe-changefeed <session> <after-version> [timeout-ms]"));
  }
  auto session = manager_->Lookup(request.args[0]);
  if (!session.ok()) return ErrorResponse(session.status());
  auto after = util::ParseInt64InRange(
      request.args[1], 0, std::numeric_limits<int64_t>::max(),
      "after-version");
  if (!after.ok()) return ErrorResponse(after.status());
  int64_t timeout_ms = 10000;
  if (request.args.size() == 3) {
    auto parsed = util::ParseInt64InRange(request.args[2], 0, 3600000,
                                          "timeout-ms");
    if (!parsed.ok()) return ErrorResponse(parsed.status());
    timeout_ms = *parsed;
  }
  auto records = (*session)->WaitForDiffs(static_cast<uint64_t>(*after),
                                          static_cast<uint64_t>(timeout_ms));
  if (!records.ok()) return ErrorResponse(records.status());
  return BodyResponse("changefeed " + request.args[0], *std::move(records));
}

Response RequestHandler::HandleClose(const Request& request) {
  if (request.args.size() != 1) {
    return ErrorResponse(
        util::Status::InvalidArgument("usage: close <session>"));
  }
  util::Status status = manager_->Close(request.args[0]);
  if (!status.ok()) return ErrorResponse(status);
  return OkResponse("closed " + request.args[0]);
}

}  // namespace pghive::service
