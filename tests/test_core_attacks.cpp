// Structured adversarial attacks on the core verifier: instead of random
// bit flips, each test decodes an honest certificate, surgically forges one
// semantic field (input flag, hom state, terminals, fold inputs, embedding
// ranks, root metadata, ...), re-encodes, and asserts that some vertex
// rejects.  These target the specific soundness obligations of Section 6.2.
// The last test forges a whole labeling instead of one record.

#include <gtest/gtest.h>

#include <functional>

#include "core/records.hpp"
#include "core/scheme.hpp"
#include "graph/generators.hpp"
#include "mso/properties.hpp"
#include "mso/property.hpp"

namespace lanecert {
namespace {

struct Instance {
  Graph g;
  IdAssignment ids;
  std::vector<std::string> labels;
  PropertyPtr prop;
};

Instance cycleInstance() {
  Instance inst{cycleGraph(10), IdAssignment::random(10, 5), {},
                makeCycleProperty()};
  auto proved = proveCore(inst.g, inst.ids, *inst.prop);
  EXPECT_TRUE(proved.propertyHolds);
  inst.labels = std::move(proved.labels);
  return inst;
}

/// Applies `forge` to every label in turn (decoded form); expects that for
/// every choice of attacked label the verifier rejects somewhere.
void expectAllForgeriesRejected(const Instance& inst,
                                const std::function<bool(EdgeLabel&)>& forge,
                                const char* what) {
  const auto verifier = makeCoreVerifier(inst.prop);
  int attacked = 0;
  for (std::size_t i = 0; i < inst.labels.size(); ++i) {
    EdgeLabel label = EdgeLabel::decode(inst.labels[i]);
    if (!forge(label)) continue;  // forgery not applicable to this label
    ++attacked;
    auto labels = inst.labels;
    labels[i] = label.encoded();
    const auto res = simulateEdgeScheme(inst.g, inst.ids, labels, verifier);
    EXPECT_FALSE(res.allAccept) << what << " accepted at label " << i;
  }
  EXPECT_GT(attacked, 0) << what << ": forgery never applicable";
}

TEST(CoreAttacks, FlagRealEdgeAsVirtual) {
  // Hiding a real edge from φ must be caught (here: hiding a cycle edge
  // would make the rest a path, not a cycle).
  const Instance inst = cycleInstance();
  expectAllForgeriesRejected(
      inst,
      [](EdgeLabel& l) {
        l.own.real = false;
        return true;
      },
      "real-as-virtual");
}

TEST(CoreAttacks, ForgeOwnerEntryInputFlag) {
  const Instance inst = cycleInstance();
  expectAllForgeriesRejected(
      inst,
      [](EdgeLabel& l) {
        ChainEntry& owner = l.own.chain[0];
        switch (owner.kind) {
          case ChainEntry::Kind::kBaseE:
            owner.eReal = !owner.eReal;
            return true;
          case ChainEntry::Kind::kBaseP:
            owner.pReal[0] = !owner.pReal[0];
            return true;
          case ChainEntry::Kind::kBridge:
            owner.bridgeReal = !owner.bridgeReal;
            return true;
          default:
            return false;
        }
      },
      "owner input flag");
}

TEST(CoreAttacks, ForgeRootHomState) {
  // Swapping the root state for a different VALID state of the same
  // property must break either the acceptance check or the fold equalities.
  const Instance inst = cycleInstance();
  expectAllForgeriesRejected(
      inst,
      [&inst](EdgeLabel& l) {
        // A deliberately "accepting-looking" state: a finished 3-cycle.
        HomState s = inst.prop->empty();
        s = inst.prop->addVertex(s);
        l.own.rootEntry.self.stateBytes = s.encoding();
        return true;
      },
      "root hom state");
}

TEST(CoreAttacks, ForgeSubtreeFoldOutput) {
  const Instance inst = cycleInstance();
  expectAllForgeriesRejected(
      inst,
      [](EdgeLabel& l) {
        for (ChainEntry& e : l.own.chain) {
          // Only a forgery when the fold actually merges children
          // (otherwise subtree == childSelf is legitimately true).
          if (e.kind == ChainEntry::Kind::kTree && !e.treeChildren.empty()) {
            // Claim the subtree collapses to the bare child (dropping its
            // tree children from the fold result).
            e.subtree.stateBytes = e.childSelf.stateBytes;
            e.subtree.outTerm = e.childSelf.outTerm;
            e.subtree.slotOrder = e.childSelf.slotOrder;
            return true;
          }
        }
        return false;
      },
      "subtree fold output");
}

TEST(CoreAttacks, DropDeclaredTreeChild) {
  const Instance inst = cycleInstance();
  expectAllForgeriesRejected(
      inst,
      [](EdgeLabel& l) {
        for (ChainEntry& e : l.own.chain) {
          if (e.kind == ChainEntry::Kind::kTree && !e.treeChildren.empty()) {
            e.treeChildren.pop_back();
            return true;
          }
        }
        return false;
      },
      "dropped tree child");
}

TEST(CoreAttacks, SwapBridgeParts) {
  const Instance inst = cycleInstance();
  expectAllForgeriesRejected(
      inst,
      [](EdgeLabel& l) {
        for (ChainEntry& e : l.own.chain) {
          if (e.kind == ChainEntry::Kind::kBridge) {
            std::swap(e.part0, e.part1);
            return true;
          }
        }
        return false;
      },
      "swapped bridge parts");
}

TEST(CoreAttacks, RenameTerminal) {
  const Instance inst = cycleInstance();
  expectAllForgeriesRejected(
      inst,
      [](EdgeLabel& l) {
        ChainEntry& owner = l.own.chain[0];
        if (owner.self.outTerm.entries.empty()) return false;
        owner.self.outTerm.entries[0].second ^= 0x5555;
        return true;
      },
      "renamed terminal");
}

TEST(CoreAttacks, CorruptEmbeddingRanks) {
  const Instance inst = cycleInstance();
  expectAllForgeriesRejected(
      inst,
      [](EdgeLabel& l) {
        if (l.through.empty()) return false;
        l.through[0].fwdRank += 1;
        return true;
      },
      "embedding rank");
}

TEST(CoreAttacks, RedirectVirtualEdgeEndpoint) {
  const Instance inst = cycleInstance();
  expectAllForgeriesRejected(
      inst,
      [](EdgeLabel& l) {
        if (l.through.empty()) return false;
        l.through[0].uId ^= 0x1234;
        return true;
      },
      "virtual endpoint");
}

TEST(CoreAttacks, InconsistentRootIds) {
  const Instance inst = cycleInstance();
  expectAllForgeriesRejected(
      inst,
      [](EdgeLabel& l) {
        l.own.rootTNode += 1;
        return true;
      },
      "root node id");
}

TEST(CoreAttacks, ReparentChainEntry) {
  // Point a chain's T entry at a different (also real) child id: linkage
  // or consistency must catch the mismatch.
  const Instance inst = cycleInstance();
  expectAllForgeriesRejected(
      inst,
      [](EdgeLabel& l) {
        for (ChainEntry& e : l.own.chain) {
          if (e.kind == ChainEntry::Kind::kTree) {
            e.childId += 1;
            return true;
          }
        }
        return false;
      },
      "reparented chain entry");
}

TEST(CoreAttacks, TruncateChain) {
  const Instance inst = cycleInstance();
  expectAllForgeriesRejected(
      inst,
      [](EdgeLabel& l) {
        if (l.own.chain.size() < 3) return false;
        l.own.chain.resize(l.own.chain.size() - 2);  // keep T on top
        return true;
      },
      "truncated chain");
}

TEST(CoreAttacks, PointerRerooting) {
  const Instance inst = cycleInstance();
  expectAllForgeriesRejected(
      inst,
      [](EdgeLabel& l) {
        l.pointer.rootId ^= 0x77;
        return true;
      },
      "pointer reroot");
}

TEST(CoreAttacks, WrongPropertyStateBytes) {
  // Replace the owner entry's state with a state of ANOTHER property
  // (byte soup for this one): decode/recompute must reject.
  const Instance inst = cycleInstance();
  const auto foreign = makePerfectMatching();
  HomState f = foreign->addVertex(foreign->addVertex(foreign->empty()));
  expectAllForgeriesRejected(
      inst,
      [&f](EdgeLabel& l) {
        l.own.chain[0].self.stateBytes = f.encoding();
        return true;
      },
      "foreign state bytes");
}

TEST(CoreAttacks, DuplicatePathThroughRecord) {
  const Instance inst = cycleInstance();
  expectAllForgeriesRejected(
      inst,
      [](EdgeLabel& l) {
        if (l.through.empty()) return false;
        l.through.push_back(l.through[0]);
        return true;
      },
      "duplicated path record");
}

/// The real property in every operation except `accepts`, which holds for
/// every state.  The honest prover over it labels a false instance
/// consistently: every copy of every record agrees, so only the verifier's
/// root acceptance check is left to reject the labeling.
class AcceptsEverything final : public Property {
 public:
  explicit AcceptsEverything(PropertyPtr real) : real_(std::move(real)) {}
  std::string name() const override { return real_->name(); }
  HomState empty() const override { return real_->empty(); }
  HomState addVertex(const HomState& s) const override {
    return real_->addVertex(s);
  }
  HomState addEdge(const HomState& s, int a, int b, int label) const override {
    return real_->addEdge(s, a, b, label);
  }
  HomState join(const HomState& a, const HomState& b) const override {
    return real_->join(a, b);
  }
  HomState identify(const HomState& s, int a, int b) const override {
    return real_->identify(s, a, b);
  }
  HomState forget(const HomState& s, int a) const override {
    return real_->forget(s, a);
  }
  bool accepts(const HomState&) const override { return true; }
  HomState decodeState(std::string_view enc) const override {
    return real_->decodeState(enc);
  }
  int slotCount(const HomState& s) const override { return real_->slotCount(s); }

 private:
  PropertyPtr real_;
};

TEST(CoreAttacks, ConsistentLabelingOfFalseInstanceRejected) {
  struct Case {
    Graph g;
    PropertyPtr prop;
    const char* what;
  };
  const std::vector<Case> cases = {
      {cycleGraph(6), makeForest(), "C6 as a forest"},
      {cycleGraph(9), makeColorability(2), "C9 as 2-colourable"},
      {cycleGraph(8), makePathProperty(), "C8 as a path"},
      {cycleGraph(7), makeMaxDegree(1), "C7 with max degree 1"},
      {pathGraph(6), makeCycleProperty(), "P6 as a cycle"},
      {pathGraph(5), makePerfectMatching(), "P5 with a perfect matching"},
  };
  for (const Case& c : cases) {
    const IdAssignment ids = IdAssignment::random(c.g.numVertices(), 11);
    const CoreProveResult forged = proveCore(c.g, ids, AcceptsEverything(c.prop));
    ASSERT_TRUE(forged.propertyHolds) << c.what;
    const auto res = simulateEdgeScheme(c.g, ids, forged.labels,
                                        makeCoreVerifier(c.prop));
    EXPECT_FALSE(res.allAccept) << c.what;
  }
}

}  // namespace
}  // namespace lanecert
