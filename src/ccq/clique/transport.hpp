// Congested-Clique communication substrate.
//
// Model (paper, Section 2): n nodes, fully connected; per round every node
// may send one O(log n)-bit message over each of its n-1 links.
// Congested-Clique[B] widens messages to O(B) bits.  One machine word
// (node id + weight + tag) is one standard message.
//
// The two routing workhorses:
//  * Lemma 2.1 (Lenzen): any instance where each node sends and receives
//    O(n) messages completes in O(1) rounds.
//  * Lemma 2.2 ([CFG+20]): same guarantee with only the *receive* side
//    bounded, provided senders' content is determined by O(n log n) input
//    bits (message duplication/redundancy).
//
// CliqueTransport charges rounds for these primitives against a
// RoundLedger and validates the capacity preconditions.  MessageExchange
// moves typed records for real, so algorithm correctness genuinely flows
// through the simulated network.
#ifndef CCQ_CLIQUE_TRANSPORT_HPP
#define CCQ_CLIQUE_TRANSPORT_HPP

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "ccq/clique/ledger.hpp"
#include "ccq/common/check.hpp"
#include "ccq/common/math.hpp"
#include "ccq/common/types.hpp"

namespace ccq {

/// Simulation cost parameters.
struct CostModel {
    /// Words each link carries per round: B / ceil(log2 n).  The standard
    /// model is 1.0; Theorem 7.1's second bullet uses log^2 (B = log^3 n),
    /// Theorem 8.1 uses log^3 (B = log^4 n).
    double bandwidth_words = 1.0;

    /// Rounds charged per "full load" batch in Lenzen routing (one
    /// distribution phase + one delivery phase).
    double lenzen_round_factor = 2.0;

    /// Substituted primitives charge the cited O(1)-round bounds (the
    /// substitutes are described in spanner/baswana_sen.hpp and
    /// mst/boruvka.hpp).
    double constant_round_spanner_rounds = 4.0; ///< CZ22 spanner construction
    double constant_round_mst_rounds = 4.0;     ///< Nowicki MST

    /// Dense min-plus product round charge factor: rounds = factor * n^{1/3}
    /// ([CKK+19]); used only by the exact baseline.
    double dense_product_round_factor = 1.0;

    [[nodiscard]] static CostModel standard() { return CostModel{}; }

    /// Congested-Clique[log^p n] for an n-node clique.
    [[nodiscard]] static CostModel with_log_power_bandwidth(int n, int power)
    {
        CCQ_EXPECT(power >= 1, "with_log_power_bandwidth: power >= 1");
        CostModel model;
        const double log_n = n >= 2 ? static_cast<double>(ceil_log2(n)) : 1.0;
        double words = 1.0;
        for (int i = 1; i < power; ++i) words *= log_n;
        model.bandwidth_words = words; // B = log^power n bits => log^{power-1} n words
        return model;
    }
};

/// Per-node send/receive word loads of one routing instance.
struct RoutingLoad {
    std::uint64_t max_sent = 0;
    std::uint64_t max_received = 0;
    std::uint64_t total_words = 0;
};

/// Charges rounds for communication primitives and validates capacity
/// preconditions.  All "deliveries" of actual data are performed by
/// MessageExchange (below) which reports its load here.
class CliqueTransport {
public:
    CliqueTransport(int node_count, CostModel cost, RoundLedger& ledger)
        : n_(node_count), cost_(cost), ledger_(&ledger)
    {
        CCQ_EXPECT(node_count >= 1, "CliqueTransport: need at least one node");
    }

    [[nodiscard]] int node_count() const noexcept { return n_; }
    [[nodiscard]] const CostModel& cost() const noexcept { return cost_; }
    [[nodiscard]] RoundLedger& ledger() noexcept { return *ledger_; }

    /// Lenzen routing (Lemma 2.1): each node sends <= c*n and receives
    /// <= c*n words.  Rounds: lenzen_round_factor * ceil(max load / (n*bw)).
    void charge_route(std::string_view phase, const RoutingLoad& load);

    /// Redundancy routing (Lemma 2.2): only the receive side is bounded;
    /// the send side may exceed n*c thanks to message duplication.  Same
    /// round formula, driven by the receive load.
    void charge_redundant_route(std::string_view phase, const RoutingLoad& load);

    /// One node disseminates `words` words to everyone (split among
    /// helpers, then helpers all-broadcast): 2 * ceil(words / (n*bw)).
    void charge_broadcast_from(std::string_view phase, std::uint64_t words);

    /// Every node broadcasts `words_per_node` words to everyone:
    /// ceil(words_per_node / bw) rounds (each node receives n*W words).
    void charge_broadcast_all(std::string_view phase, std::uint64_t words_per_node);

    /// Substituted-primitive charges (see CostModel).
    void charge_constant_round_spanner(std::string_view phase);
    void charge_constant_round_mst(std::string_view phase);
    void charge_dense_products(std::string_view phase, int products);

    /// Free local computation marker (recorded with 0 rounds so phase
    /// traces show where local work happens).
    void note_local_computation(std::string_view phase);

private:
    [[nodiscard]] double rounds_for_load(std::uint64_t max_load_words) const;

    int n_;
    CostModel cost_;
    RoundLedger* ledger_;
};

/// Typed, validated message movement.  Records are actually regrouped by
/// destination; `words_per_record` translates records into model words.
template <class Payload>
class MessageExchange {
public:
    explicit MessageExchange(int node_count) : inboxes_(static_cast<std::size_t>(node_count)) {}

    struct Routed {
        NodeId source;
        Payload payload;
    };

    void send(NodeId source, NodeId destination, Payload payload)
    {
        CCQ_EXPECT(valid(source) && valid(destination), "MessageExchange::send: bad endpoint");
        staged_.push_back(Staged{source, destination, std::move(payload)});
    }

    /// Delivers all staged messages: charges `transport` under `phase`
    /// (Lenzen by default, Lemma 2.2 when `redundant`), then returns the
    /// per-destination inboxes.  The exchange is left empty.
    [[nodiscard]] std::vector<std::vector<Routed>> deliver(CliqueTransport& transport,
                                                           std::string_view phase,
                                                           std::uint64_t words_per_record = 1,
                                                           bool redundant = false)
    {
        CCQ_EXPECT(words_per_record >= 1, "MessageExchange: words_per_record >= 1");
        std::vector<std::uint64_t> sent(inboxes_.size(), 0);
        std::vector<std::uint64_t> received(inboxes_.size(), 0);
        for (const Staged& msg : staged_) {
            sent[static_cast<std::size_t>(msg.source)] += words_per_record;
            received[static_cast<std::size_t>(msg.destination)] += words_per_record;
        }
        RoutingLoad load;
        for (std::size_t v = 0; v < inboxes_.size(); ++v) {
            load.max_sent = std::max(load.max_sent, sent[v]);
            load.max_received = std::max(load.max_received, received[v]);
            load.total_words += sent[v];
        }
        if (redundant)
            transport.charge_redundant_route(phase, load);
        else
            transport.charge_route(phase, load);

        for (Staged& msg : staged_) {
            inboxes_[static_cast<std::size_t>(msg.destination)].push_back(
                Routed{msg.source, std::move(msg.payload)});
        }
        staged_.clear();
        return std::exchange(inboxes_,
                             std::vector<std::vector<Routed>>(inboxes_.size()));
    }

private:
    struct Staged {
        NodeId source;
        NodeId destination;
        Payload payload;
    };

    [[nodiscard]] bool valid(NodeId v) const noexcept
    {
        return v >= 0 && static_cast<std::size_t>(v) < inboxes_.size();
    }

    std::vector<Staged> staged_;
    std::vector<std::vector<Routed>> inboxes_;
};

} // namespace ccq

#endif // CCQ_CLIQUE_TRANSPORT_HPP
