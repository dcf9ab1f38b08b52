#include "service/client.h"

#include <sstream>
#include <utility>

#include "pg/batch.h"
#include "pg/graph_io.h"
#include "util/parse.h"

namespace pghive::service {

std::vector<std::string> BuildIngestPayloads(const pg::PropertyGraph& graph,
                                             size_t num_batches,
                                             uint64_t seed) {
  std::vector<pg::GraphBatch> batches;
  if (num_batches <= 1) {
    batches.push_back(pg::FullBatch(graph));
  } else {
    batches = pg::SplitIntoBatches(graph, num_batches, seed);
  }

  std::vector<std::string> payloads;
  payloads.reserve(batches.size());
  std::vector<bool> sent(graph.num_nodes(), false);
  for (size_t b = 0; b < batches.size(); ++b) {
    std::string out;
    if (b == 0) {
      out += "G " + std::to_string(graph.num_nodes()) + ' ' +
             std::to_string(graph.num_edges()) + '\n';
      // Vocabulary preamble: the label/key id permutation decides the
      // feature-column layout, so the server must intern in exactly the
      // order the one-shot load did.
      const pg::Vocabulary& vocab = graph.vocab();
      for (pg::LabelId l = 0; l < vocab.num_labels(); ++l) {
        out += "V L " + pg::EscapeField(vocab.LabelName(l)) + '\n';
      }
      for (pg::PropKeyId k = 0; k < vocab.num_keys(); ++k) {
        out += "V K " + pg::EscapeField(vocab.KeyName(k)) + '\n';
      }
    }
    for (pg::NodeId id : batches[b].node_ids) {
      if (sent[id]) {
        out += "M " + std::to_string(id) + '\n';
      } else {
        out += pg::FormatNodeLine(graph, graph.node(id)) + '\n';
        sent[id] = true;
      }
    }
    for (pg::EdgeId id : batches[b].edge_ids) {
      const pg::Edge& edge = graph.edge(id);
      for (pg::NodeId endpoint : {edge.src, edge.dst}) {
        if (!sent[endpoint]) {
          // Edge before its endpoints' batches: ship the endpoint now as a
          // reference so its labels are resolvable, membership comes later.
          const size_t record = out.size();
          out += pg::FormatNodeLine(graph, graph.node(endpoint)) + '\n';
          out[record] = 'R';
          sent[endpoint] = true;
        }
      }
      out += pg::FormatEdgeLine(graph, edge) + '\n';
    }
    payloads.push_back(std::move(out));
  }
  return payloads;
}

util::StatusOr<PghivedClient> PghivedClient::Connect(uint16_t port) {
  auto fd = ConnectTcp(port);
  if (!fd.ok()) return fd.status();
  return PghivedClient(SocketStream(*fd));
}

util::StatusOr<Response> PghivedClient::RoundTrip(const std::string& line,
                                                  const std::string& body) {
  util::Status status = stream_.WriteAll(line + "\n");
  if (status.ok() && !body.empty()) status = stream_.WriteAll(body);
  if (!status.ok()) return status;

  auto response_line = stream_.ReadLine();
  if (!response_line.ok()) return response_line.status();
  Response response;
  size_t body_bytes = 0;
  status = ParseResponseLine(*response_line, &response, &body_bytes);
  if (!status.ok()) return status;
  if (response.has_body) {
    status = stream_.ReadExact(body_bytes, &response.body);
    if (!status.ok()) return status;
    // Consume the newline FormatResponse appends after the body.
    auto trailer = stream_.ReadLine();
    if (!trailer.ok()) return trailer.status();
  }
  if (!response.status.ok()) return response.status;
  return response;
}

util::Status PghivedClient::Ping() {
  auto response = RoundTrip("ping");
  return response.ok() ? util::Status::Ok() : response.status();
}

util::StatusOr<std::string> PghivedClient::CreateSession(
    const std::map<std::string, std::string>& option_flags) {
  std::string line = "create-session";
  if (option_flags.find("proto") == option_flags.end()) {
    line += " proto=" + std::to_string(kProtocolVersion);
  }
  for (const auto& [key, value] : option_flags) {
    line += ' ' + key + '=' + value;
  }
  auto response = RoundTrip(line);
  if (!response.ok()) return response.status();
  std::istringstream info(response->info);
  std::string tag, id;
  if (!(info >> tag >> id) || tag != "session") {
    return util::Status::ParseError("unexpected create-session reply '" +
                                    response->info + "'");
  }
  return id;
}

util::StatusOr<uint64_t> PghivedClient::IngestBatch(
    const std::string& session, const std::string& payload) {
  auto response = RoundTrip("ingest-batch " + session + ' ' +
                                std::to_string(payload.size()),
                            payload);
  if (!response.ok()) return response.status();
  std::istringstream info(response->info);
  std::string tag, seq;
  if (!(info >> tag >> seq) || tag != "batch") {
    return util::Status::ParseError("unexpected ingest-batch reply '" +
                                    response->info + "'");
  }
  auto parsed = util::ParseInt64(seq);
  if (!parsed.ok() || *parsed < 0) {
    return util::Status::ParseError("bad batch sequence '" + seq + "'");
  }
  return static_cast<uint64_t>(*parsed);
}

util::StatusOr<std::string> PghivedClient::GetSchema(
    const std::string& session, const std::string& form, bool snapshot) {
  std::string line = "get-schema " + session + ' ' + form;
  if (snapshot) line += " snapshot";
  auto response = RoundTrip(line);
  if (!response.ok()) return response.status();
  if (!response->has_body) {
    return util::Status::ParseError("get-schema reply carried no body");
  }
  return std::move(response->body);
}

util::StatusOr<ValidationResult> PghivedClient::Validate(
    const std::string& session, bool strict, const std::string& pgs_text) {
  auto response = RoundTrip(
      "validate " + session + (strict ? " strict " : " loose ") +
          std::to_string(pgs_text.size()),
      pgs_text);
  if (!response.ok()) return response.status();
  ValidationResult result;
  result.conforms = response->info == "valid";
  result.report = std::move(response->body);
  return result;
}

util::StatusOr<PghivedClient::RestoredSession> PghivedClient::SessionInfo(
    const std::string& session) {
  auto response = RoundTrip("session-info " + session);
  if (!response.ok()) return response.status();
  std::istringstream info(response->info);
  std::string tag, id, batches_tag, batches;
  if (!(info >> tag >> id >> batches_tag >> batches) || tag != "session" ||
      batches_tag != "batches") {
    return util::Status::ParseError("unexpected session-info reply '" +
                                    response->info + "'");
  }
  auto parsed = util::ParseInt64(batches);
  if (!parsed.ok() || *parsed < 0) {
    return util::Status::ParseError("bad batch count '" + batches + "'");
  }
  return RestoredSession{id, static_cast<uint64_t>(*parsed)};
}

util::StatusOr<std::string> PghivedClient::SubscribeChangefeed(
    const std::string& session, uint64_t after_version, uint64_t timeout_ms) {
  auto response =
      RoundTrip("subscribe-changefeed " + session + ' ' +
                std::to_string(after_version) + ' ' + std::to_string(timeout_ms));
  if (!response.ok()) return response.status();
  return std::move(response->body);
}

util::Status PghivedClient::CloseSession(const std::string& session) {
  auto response = RoundTrip("close " + session);
  return response.ok() ? util::Status::Ok() : response.status();
}

}  // namespace pghive::service
