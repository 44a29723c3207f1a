// Socket-level tests for the ruled server: HTTP framing units, keep-alive
// and pipelining over real connections, the connection cap, drain
// semantics, and a miniature rule_load run. Router semantics are covered
// in service_test.cc.

#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "service/http.h"
#include "service/load_gen.h"
#include "service/server.h"
#include "service/tenant.h"
#include "json_lint.h"

namespace starburst {
namespace service {
namespace {

using ::starburst::testing::IsValidJson;

std::string ReadCorpus(const std::string& name) {
  std::ifstream in(std::string(STARBURST_CORPUS_DIR) + "/" + name);
  EXPECT_TRUE(in) << "missing corpus file " << name;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(HttpParserTest, ParsesRequestWithQueryAndBody) {
  HttpRequestParser parser;
  std::string raw =
      "POST /v1/tenants/a/transition?commit=0&max_steps=50 HTTP/1.1\r\n"
      "Host: x\r\nContent-Length: 4\r\n\r\nbody";
  ASSERT_EQ(parser.Feed(raw.data(), raw.size()),
            HttpRequestParser::State::kComplete);
  const HttpRequest& request = parser.request();
  EXPECT_EQ(request.method, "POST");
  EXPECT_EQ(request.path, "/v1/tenants/a/transition");
  ASSERT_NE(request.QueryParam("commit"), nullptr);
  EXPECT_EQ(*request.QueryParam("commit"), "0");
  ASSERT_NE(request.QueryParam("max_steps"), nullptr);
  EXPECT_EQ(*request.QueryParam("max_steps"), "50");
  EXPECT_EQ(request.QueryParam("missing"), nullptr);
  EXPECT_EQ(request.body, "body");
  ASSERT_NE(request.Header("host"), nullptr);
  EXPECT_EQ(*request.Header("HOST"), "x");
}

TEST(HttpParserTest, IncrementalFeedAndPipelining) {
  HttpRequestParser parser;
  std::string first = "GET /healthz HTTP/1.1\r\n\r\n";
  std::string second = "GET /stats HTTP/1.1\r\nConnection: close\r\n\r\n";
  std::string both = first + second;
  // One byte at a time: must complete exactly after the first request.
  for (size_t i = 0; i < both.size(); ++i) {
    HttpRequestParser::State state = parser.Feed(&both[i], 1);
    if (i < first.size() - 1) {
      ASSERT_EQ(state, HttpRequestParser::State::kNeedMore) << i;
    }
  }
  ASSERT_EQ(parser.state(), HttpRequestParser::State::kComplete);
  EXPECT_EQ(parser.request().path, "/healthz");
  EXPECT_TRUE(parser.request().keep_alive);
  parser.Consume();
  // The pipelined second request is already buffered and parses alone.
  ASSERT_EQ(parser.state(), HttpRequestParser::State::kComplete);
  EXPECT_EQ(parser.request().path, "/stats");
  EXPECT_FALSE(parser.request().keep_alive);
  parser.Consume();
  EXPECT_EQ(parser.state(), HttpRequestParser::State::kNeedMore);
  EXPECT_TRUE(parser.Empty());
}

TEST(HttpParserTest, PercentDecodingAndErrors) {
  EXPECT_EQ(PercentDecode("a%20b+c%3D1"), "a b c=1");
  EXPECT_EQ(PercentDecode("bad%zz"), "bad%zz");

  HttpRequestParser bad;
  std::string raw = "BROKEN\r\n\r\n";
  EXPECT_EQ(bad.Feed(raw.data(), raw.size()),
            HttpRequestParser::State::kError);
  EXPECT_EQ(bad.error_status(), 400);

  HttpRequestParser huge;
  std::string body_too_big =
      "POST /x HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n";
  EXPECT_EQ(huge.Feed(body_too_big.data(), body_too_big.size()),
            HttpRequestParser::State::kError);
  EXPECT_EQ(huge.error_status(), 413);
}

TEST(HttpParserTest, ResponseRoundTrip) {
  HttpResponse response;
  response.status = 404;
  response.body = "{\"error\":1}";
  response.keep_alive = false;
  std::string wire = SerializeResponse(response);
  HttpResponseParser parser;
  ASSERT_EQ(parser.Feed(wire.data(), wire.size()),
            HttpResponseParser::State::kComplete);
  EXPECT_EQ(parser.response().status, 404);
  EXPECT_EQ(parser.response().body, response.body);
  EXPECT_FALSE(parser.response().keep_alive);
}

TEST(HttpParserTest, ParseUrl) {
  auto url = ParseUrl("http://127.0.0.1:8080/stats?section=counters");
  ASSERT_TRUE(url.ok());
  EXPECT_EQ(url.value().host, "127.0.0.1");
  EXPECT_EQ(url.value().port, 8080);
  EXPECT_EQ(url.value().target, "/stats?section=counters");
  EXPECT_EQ(ParseUrl("http://host").value().target, "/");
  EXPECT_FALSE(ParseUrl("ftp://x/").ok());
  EXPECT_FALSE(ParseUrl("http://host:notaport/").ok());
}

class ServerFixture : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options = {}) {
    options.port = 0;
    server_ = std::make_unique<RuledServer>(&registry_, options);
    Status status = server_->Start();
    ASSERT_TRUE(status.ok()) << status.ToString();
  }

  Result<HttpClientConnection> Connect() {
    return HttpClientConnection::Connect("127.0.0.1", server_->port());
  }

  TenantRegistry registry_;
  std::unique_ptr<RuledServer> server_;
};

TEST_F(ServerFixture, ServesRequestsOverRealSockets) {
  StartServer();
  auto conn = Connect();
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();

  auto health = conn.value().RoundTrip("GET", "/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health.value().status, 200);
  EXPECT_EQ(health.value().body, "{\"status\":\"ok\",\"tenants\":0}");

  // Keep-alive: the same connection serves a full tenant lifecycle.
  auto created = conn.value().RoundTrip("POST", "/v1/tenants/alpha",
                                        ReadCorpus("acyclic_chain.rules"));
  ASSERT_TRUE(created.ok());
  EXPECT_EQ(created.value().status, 201);
  auto analyzed =
      conn.value().RoundTrip("POST", "/v1/tenants/alpha/analyze");
  ASSERT_TRUE(analyzed.ok());
  EXPECT_EQ(analyzed.value().status, 200);
  EXPECT_TRUE(IsValidJson(analyzed.value().body));
  auto gone = conn.value().RoundTrip("DELETE", "/v1/tenants/alpha");
  ASSERT_TRUE(gone.ok());
  EXPECT_EQ(gone.value().status, 200);

  // HttpFetch one-shot against the same server.
  auto fetched = HttpFetch("http://127.0.0.1:" +
                           std::to_string(server_->port()) + "/healthz");
  ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
  EXPECT_EQ(fetched.value().status, 200);

  server_->Stop();
}

TEST_F(ServerFixture, MalformedRequestGets400AndClose) {
  StartServer();
  auto conn = Connect();
  ASSERT_TRUE(conn.ok());
  auto response = conn.value().RoundTrip("BAD REQUEST LINE", "/x");
  // Serialized as "BAD REQUEST LINE /x HTTP/1.1" — a 4-token request line
  // the server rejects before routing.
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status, 400);
  EXPECT_FALSE(response.value().keep_alive);
  server_->Stop();
}

TEST_F(ServerFixture, ConnectionCapAnswers503) {
  ServerOptions options;
  options.max_connections = 1;
  StartServer(options);
  auto first = Connect();
  ASSERT_TRUE(first.ok());
  // Occupy the only slot so the next connection is rejected.
  auto ok = first.value().RoundTrip("GET", "/healthz");
  ASSERT_TRUE(ok.ok());

  auto second = Connect();
  ASSERT_TRUE(second.ok());
  auto rejected = second.value().RoundTrip("GET", "/healthz");
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  EXPECT_EQ(rejected.value().status, 503);

  // Releasing the first connection frees the slot.
  first.value().Close();
  for (int attempt = 0; attempt < 50; ++attempt) {
    auto retry = Connect();
    if (retry.ok()) {
      auto response = retry.value().RoundTrip("GET", "/healthz");
      if (response.ok() && response.value().status == 200) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_LT(attempt, 49) << "slot never freed";
  }
  server_->Stop();
}

TEST_F(ServerFixture, DrainFinishesInFlightRequestsAndStops) {
  StartServer();
  auto conn = Connect();
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn.value().RoundTrip("GET", "/healthz").ok());

  server_->RequestStop();
  EXPECT_TRUE(server_->stopping());
  // New connections are refused once the listener is down.
  auto late = Connect();
  if (late.ok()) {
    auto response = late.value().RoundTrip("GET", "/healthz");
    EXPECT_FALSE(response.ok());
  }
  server_->Stop();  // joins; must not hang (the idle keep-alive connection
                    // closes at its next poll tick)
}

TEST_F(ServerFixture, MiniLoadGenRunIsCleanAndReportsLatency) {
  StartServer();
  LoadGenOptions options;
  options.port = server_->port();
  options.users = 50;
  options.connections = 4;
  options.duration_seconds = 1.0;
  options.tenants = 2;
  auto report = RunLoadGen(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report.value().requests, 0);
  EXPECT_EQ(report.value().http_errors, 0);
  EXPECT_EQ(report.value().transport_errors, 0);
  EXPECT_GT(report.value().requests_per_second, 0);
  EXPECT_GE(report.value().p99_ms, report.value().p50_ms);
  std::string json = LoadGenReportToJson(report.value());
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"p99_ms\":"), std::string::npos);
  // cleanup=true removed the synthetic tenants again.
  EXPECT_EQ(registry_.size(), 0);
  server_->Stop();
}

// --rows grows every synthetic tenant by exactly N committed rows in a
// table no rule touches, whatever the traffic that follows commits.
TEST_F(ServerFixture, LoadGenRowsPreloadsATableNoRuleTouches) {
  StartServer();
  LoadGenOptions options;
  options.port = server_->port();
  options.users = 4;
  options.connections = 1;
  options.duration_seconds = 0.2;
  options.tenants = 2;
  options.rows = 2500;
  options.cleanup = false;
  auto report = RunLoadGen(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().http_errors, 0);
  EXPECT_NE(LoadGenReportToJson(report.value()).find("\"rows\":2500"),
            std::string::npos);
  server_->Stop();
  for (const char* name : {"load-0", "load-1"}) {
    std::shared_ptr<Tenant> tenant = registry_.Find(name);
    ASSERT_NE(tenant, nullptr) << name;
    TableId ballast = tenant->catalog().schema().FindTable("ballast");
    ASSERT_GE(ballast, 0) << name;
    EXPECT_EQ(tenant->db().storage(ballast).size(), 2500u) << name;
    EXPECT_EQ(tenant->db().delta_depth(), 0) << name;
  }
}

}  // namespace
}  // namespace service
}  // namespace starburst
