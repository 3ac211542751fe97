// Travel booking: the hotel/airline reservation workload the paper's
// introduction motivates. A travel agency books a flight and a hotel in one
// distributed transaction, consults a fare-quote service (read-only), and
// survives a mid-commit crash of the hotel system.
//
// Also demonstrates the paper's central reliability comparison: when the
// hotel operator makes a heuristic decision during an outage, Presumed
// Nothing reports the damage to the travel agency while Presumed Abort
// (R*-style) silently tells it "committed".

#include <cstdio>
#include <string>

#include "harness/cluster.h"
#include "util/logging.h"

using namespace tpc;

namespace {

struct Trip {
  harness::Cluster cluster;

  explicit Trip(tm::ProtocolKind protocol,
                tm::HeuristicPolicy hotel_policy = tm::HeuristicPolicy::kNever) {
    harness::NodeOptions options;
    options.tm.protocol = protocol;
    harness::NodeOptions hotel_options = options;
    hotel_options.tm.heuristic_policy = hotel_policy;
    hotel_options.tm.heuristic_delay = 30 * sim::kSecond;
    hotel_options.tm.inquiry_delay = 500 * sim::kSecond;

    cluster.AddNode("agency", options);
    cluster.AddNode("airline", options);
    cluster.AddNode("hotel", hotel_options);
    cluster.AddNode("quotes", options);  // fare quotes: read-only
    cluster.Connect("agency", "airline");
    cluster.Connect("agency", "hotel");
    cluster.Connect("agency", "quotes");

    cluster.tm("airline").SetAppDataHandler(
        [this](uint64_t txn, const net::NodeId&, std::string_view seat) {
          cluster.tm("airline").Write(txn, 0, "seat:" + std::string(seat),
                                      "booked",
                                      [](Status st) { TPC_CHECK(st.ok()); });
        });
    cluster.tm("hotel").SetAppDataHandler(
        [this](uint64_t txn, const net::NodeId&, std::string_view room) {
          cluster.tm("hotel").Write(txn, 0, "room:" + std::string(room),
                                    "booked",
                                    [](Status st) { TPC_CHECK(st.ok()); });
        });
    cluster.tm("quotes").SetAppDataHandler(
        [this](uint64_t txn, const net::NodeId&, std::string_view) {
          cluster.tm("quotes").Read(txn, 0, "fare:NYC-SFO",
                                    [](Result<std::string>) {});
        });
  }

  uint64_t Book() {
    uint64_t txn = cluster.tm("agency").Begin();
    cluster.tm("agency").Write(txn, 0, "itinerary:42", "NYC-SFO",
                               [](Status st) { TPC_CHECK(st.ok()); });
    TPC_CHECK(cluster.tm("agency").SendWork(txn, "airline", "12A").ok());
    TPC_CHECK(cluster.tm("agency").SendWork(txn, "hotel", "501").ok());
    TPC_CHECK(cluster.tm("agency").SendWork(txn, "quotes").ok());
    cluster.RunFor(sim::kSecond);
    return txn;
  }
};

}  // namespace

int main() {
  // --- 1. The happy path -----------------------------------------------------
  {
    Trip trip(tm::ProtocolKind::kPresumedAbort);
    uint64_t txn = trip.Book();
    auto commit = trip.cluster.CommitAndWait("agency", txn);
    trip.cluster.RunFor(sim::kSecond);
    std::printf("1. Booking committed: outcome=%s, latency=%lldms\n",
                std::string(tm::OutcomeToString(commit.result.outcome)).c_str(),
                static_cast<long long>(commit.latency / sim::kMillisecond));
    std::printf("   seat 12A:  %s\n",
                trip.cluster.node("airline").rm().Peek("seat:12A").value_or("?").c_str());
    std::printf("   room 501:  %s\n",
                trip.cluster.node("hotel").rm().Peek("room:501").value_or("?").c_str());
    tm::TxnCost quotes = trip.cluster.tm("quotes").CostOf(txn);
    std::printf("   fare-quote service voted read-only: %llu flows, "
                "%llu log writes\n",
                static_cast<unsigned long long>(quotes.flows_sent),
                static_cast<unsigned long long>(quotes.tm_log_writes));
  }

  // --- 2. The hotel crashes mid-commit and recovers --------------------------
  {
    Trip trip(tm::ProtocolKind::kPresumedAbort);
    uint64_t txn = trip.Book();
    trip.cluster.ctx().failures().ArmCrash("hotel", "sub.after_prepared_force");
    auto commit = trip.cluster.StartCommit("agency", txn);
    trip.cluster.RunFor(10 * sim::kSecond);
    std::printf("\n2. Hotel crashed during commit; agency still waiting: %s\n",
                commit->completed ? "no (?)" : "yes");
    trip.cluster.node("hotel").Restart();
    trip.cluster.RunFor(60 * sim::kSecond);
    std::printf("   after hotel recovery: outcome=%s, booking consistent=%s\n",
                std::string(tm::OutcomeToString(
                    trip.cluster.tm("agency").View(txn).outcome)).c_str(),
                trip.cluster.Audit(txn).consistent ? "yes" : "NO");
  }

  // --- 3. Heuristic damage: PA hides it from the agency, PN reports it -------
  //
  // The hotel is booked through a franchise system (a cascaded
  // coordinator). The franchise crashes right after durably deciding
  // commit; the hotel, blocked in doubt, heuristically aborts. When the
  // franchise recovers and re-drives the commit, the damage is detected —
  // and what happens to the report is the PA-vs-PN difference: PA stops it
  // at the franchise (the immediate coordinator, R*-style); PN carries it
  // all the way to the agency.
  for (auto protocol : {tm::ProtocolKind::kPresumedAbort,
                        tm::ProtocolKind::kPresumedNothing}) {
    harness::Cluster c;
    harness::NodeOptions options;
    options.tm.protocol = protocol;
    harness::NodeOptions hotel_options = options;
    hotel_options.tm.heuristic_policy = tm::HeuristicPolicy::kAbort;
    hotel_options.tm.heuristic_delay = 30 * sim::kSecond;
    hotel_options.tm.inquiry_delay = 500 * sim::kSecond;
    c.AddNode("agency", options);
    c.AddNode("franchise", options);
    c.AddNode("hotel", hotel_options);
    c.Connect("agency", "franchise");
    c.Connect("franchise", "hotel");
    c.tm("franchise").SetAppDataHandler(
        [&c](uint64_t txn, const net::NodeId& from, std::string_view room) {
          if (from != "agency") return;
          c.tm("franchise").Write(txn, 0, "booking-fee", "20",
                                  [](Status st) { TPC_CHECK(st.ok()); });
          TPC_CHECK(
              c.tm("franchise").SendWork(txn, "hotel", std::string(room)).ok());
        });
    c.tm("hotel").SetAppDataHandler(
        [&c](uint64_t txn, const net::NodeId&, std::string_view room) {
          c.tm("hotel").Write(txn, 0, "room:" + std::string(room), "booked",
                              [](Status st) { TPC_CHECK(st.ok()); });
        });

    uint64_t txn = c.tm("agency").Begin();
    c.tm("agency").Write(txn, 0, "itinerary:42", "NYC-SFO",
                         [](Status st) { TPC_CHECK(st.ok()); });
    TPC_CHECK(c.tm("agency").SendWork(txn, "franchise", "501").ok());
    c.RunFor(sim::kSecond);

    c.ctx().failures().ArmCrash("franchise", "casc.after_commit_force");
    auto commit = c.StartCommit("agency", txn);
    c.RunFor(60 * sim::kSecond);   // hotel heuristically aborts at +30s
    c.node("franchise").Restart();
    c.RunFor(300 * sim::kSecond);  // recovery re-drives the commit

    harness::TxnAudit audit = c.Audit(txn);
    std::printf("\n3. [%s] hotel heuristically aborted against a commit:\n",
                std::string(tm::ProtocolKindToString(protocol)).c_str());
    std::printf("   ground truth damage:          %s\n",
                audit.damage_ground_truth ? "yes" : "no");
    std::printf("   franchise saw the report:     %s\n",
                c.tm("franchise").View(txn).damage_reported_here ? "yes"
                                                                 : "no");
    std::printf("   agency told about damage:     %s\n",
                (commit->completed && commit->result.heuristic_damage) ||
                        c.tm("agency").View(txn).damage_reported_here
                    ? "yes"
                    : "NO — it believes the trip is fully booked");
    std::printf("   itinerary: %s / room 501: %s\n",
                c.node("agency").rm().Peek("itinerary:42").value_or("-").c_str(),
                c.node("hotel").rm().Peek("room:501").value_or("-").c_str());
  }
  return 0;
}
