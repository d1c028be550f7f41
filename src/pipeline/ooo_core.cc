#include "pipeline/ooo_core.hh"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "core/static_fuse.hh"
#include "sched/policy.hh"

namespace mop::pipeline
{

double
SimResult::groupedFrac() const
{
    uint64_t grouped = groupCounts[size_t(GroupClass::IndependentMop)] +
                       groupCounts[size_t(GroupClass::MopNonValueGen)] +
                       groupCounts[size_t(GroupClass::MopValueGen)];
    return insts ? double(grouped) / double(insts) : 0.0;
}

std::string
configError(const CoreParams &p)
{
    std::string why = sched::configError(p.sched);
    if (why.empty() && p.sched.mopEnabled && p.sched.numEntries == 1) {
        why = "a 1-entry issue queue deadlocks macro-op scheduling: a "
              "pending MOP head fills the queue and its tail can never "
              "be admitted; use 2 or more entries (or 0, unrestricted)";
    }
    return why;
}

OooCore::OooCore(const CoreParams &params, trace::TraceSource &source)
    : params_(params), src_(source), mem_(params.mem),
      bpred_(params.bpred)
{
    if (std::string why = configError(params_); !why.empty())
        throw std::invalid_argument(why);
    detector_ = std::make_unique<core::MopDetector>(params_.detector,
                                                    ptrCache_);
    const bool dyn_formation =
        sched::policyTraits(params_.sched.policyId).dynamicFormation;
    dynMops_ = params_.sched.mopEnabled && dyn_formation;
    if (dyn_formation) {
        formation_ = std::make_unique<core::MopFormation>(
            params_.sched.mopEnabled, ptrCache_, params_.detector.maxMopSize);
    } else {
        formation_ =
            std::make_unique<core::StaticFuser>(params_.sched.mopEnabled);
    }

    sched_ = std::make_unique<sched::Scheduler>(params_.sched);
    formation_->setTagPool(sched_.get());
    sched_->setLoadLatencyFn([this](uint64_t seq) {
        RobEntry *re = robByDynId(seq);
        integrity_.require(re && re->u.isLoad(),
                           verify::IntegrityChecker::Check::RobOrder,
                           [&] {
                               return "load-latency query for dyn id " +
                                      std::to_string(seq) +
                                      " that is not a ROB-resident load";
                           });
        int lat = mem_.dataAccess(re->u.memAddr, false);
        if (inj_) {
            int f = inj_->loadFaultLatency(now_,
                                           params_.sched.dl1HitLatency);
            if (f > 0)
                lat = std::max(lat, f);
        }
        return lat;
    });

    if (params_.faults.any()) {
        inj_ = std::make_unique<verify::FaultInjector>(params_.faults);
        sched_->setFaultInjector(inj_.get());
        formation_->setFaultInjector(inj_.get());
    }

    if (params_.obs.enabled) {
        obs_ = std::make_unique<obs::Observer>(
            params_.obs, params_.sched.issueWidth, sched_->capacity(),
            params_.robSize, params_.wrongPath);
        sched_->setStallProbe(true);
    }

    if (dynMops_) {
        // MOP pointers live alongside IL1 lines (Section 5.1.3).
        mem_.il1().setEvictCallback([this](uint64_t line_addr) {
            ptrCache_.evictLine(line_addr, mem_.il1().lineBytes());
        });
    }

    wpSynth_ = trace::WrongPathSynth(params_.wrongPathSeed);
    prodComplete_.assign(kProdRing, {~0ULL, 0});
    lastWriter_.fill(-1);
    ckptLastWriter_.fill(-1);
    rob_.init(params_.robSize);
    frontendLimit_ = size_t(
        std::max(params_.fetchWidth * (params_.frontendDepth + 4), 0));
    frontend_.init(frontendLimit_ + size_t(std::max(params_.fetchWidth, 1)));
    completedScratch_.reserve(64);
    mopScratch_.reserve(64);
    skipEnabled_ =
        params_.cycleSkip && !params_.obs.enabled && !params_.faults.any();
}

OooCore::~OooCore() = default;

int64_t
OooCore::robIndex(uint64_t dyn_id) const
{
    if (rob_.empty() || dyn_id < rob_.front().dynId)
        return -1;
    size_t idx = size_t(dyn_id - rob_.front().dynId);
    return idx < rob_.size() ? int64_t(idx) : -1;
}

OooCore::RobEntry *
OooCore::robByDynId(uint64_t dyn_id)
{
    int64_t idx = robIndex(dyn_id);
    return idx >= 0 ? &rob_.at(size_t(idx)) : nullptr;
}

void
OooCore::checkInvariant(const RobEntry &re, const sched::ExecEvent &ev)
{
    for (int64_t p : re.srcProducer) {
        if (p < 0)
            continue;
        const auto &slot = prodComplete_[size_t(p) % kProdRing];
        if (slot.first != uint64_t(p))
            continue;  // producer too old to matter (long committed)
        if (slot.second > ev.execStart) {
            std::ostringstream ss;
            ss << "uop " << ev.seq << " began execution at cycle "
               << ev.execStart << " but producer " << p
               << " completed at cycle " << slot.second;
            integrity_.fail(verify::IntegrityChecker::Check::Dataflow,
                            ss.str());
        }
    }
}

void
OooCore::handleCompletion(const sched::ExecEvent &ev)
{
    int64_t idx = robIndex(ev.seq);
    integrity_.require(idx >= 0,
                       verify::IntegrityChecker::Check::RobOrder,
                       [&] {
                           return "completion for dyn id " +
                                  std::to_string(ev.seq) +
                                  " with no ROB entry";
                       });
    RobEntry *re = &rob_.at(size_t(idx));
    rob_.markCompleted(size_t(idx));
    re->completeCycle = ev.complete;
    re->execStart = ev.execStart;
    re->readyCycle = ev.ready;
    re->issueCycle = ev.issued;
    re->replayed = ev.replayed;
    re->wasMiss = ev.wasMiss;
    prodComplete_[ev.seq % kProdRing] = {ev.seq, ev.complete};
    checkInvariant(*re, ev);

    if (waitingBranch_ && ev.seq == waitingBranchDynId_) {
        // Mispredicted branch resolved: redirect fetch. A wrong-path
        // icache miss may still be in flight; the redirect does not
        // wait out a fill for a doomed line (the line itself is
        // already installed — IL1 pollution persists), so its stall
        // is cancelled before the resume formula runs. The refetch
        // time is therefore identical with and without wrong-path
        // execution; the wrong path only changes what competed for
        // resources in the meantime (and what must now be squashed).
        if (wpActive_ && fetchStallUntil_ > now_)
            fetchStallUntil_ = now_;
        fetchStallUntil_ =
            std::max(fetchStallUntil_,
                     ev.complete + sched::Cycle(params_.mispredictRedirect));
        waitingBranch_ = false;
        if (wpActive_)
            squashWrongPath(ev.seq);
    }
}

void
OooCore::squashWrongPath(uint64_t boundary)
{
    integrity_.require(haveCkpt_,
                       verify::IntegrityChecker::Check::RobOrder,
                       [&] {
                           return "wrong-path squash at dyn id " +
                                  std::to_string(boundary) +
                                  " without a dispatch checkpoint";
                       });

    // Everything younger than the branch is wrong path: it was fetched
    // after the redirecting branch ended its fetch group, and right-
    // path fetch stayed off until this resolution. Flush the ROB
    // suffix, emitting trace rows for the flushed µops first (forward
    // = program order). Rows carry kFlagWrongPath, never
    // kFlagMispredict; stages the µop never reached report the squash
    // cycle, and dep/mopId stay kNone (dyn ids are about to be
    // recycled, so stale edges would alias future µops).
    size_t keep = rob_.size();
    if (!rob_.empty()) {
        uint64_t front_id = rob_.front().dynId;
        keep = boundary + 1 >= front_id ? size_t(boundary + 1 - front_id)
                                        : 0;
        keep = std::min(keep, rob_.size());
    }
    if (obs_ && obs_->tracing()) {
        for (size_t i = keep; i < rob_.size(); ++i) {
            const RobEntry &re = rob_.at(i);
            bool done = rob_.completedAt(i);
            trace::CycleEvent tev;
            tev.kind = trace::CycleEvent::Kind::Uop;
            tev.op = uint8_t(re.u.op);
            tev.seq = re.dynId;
            tev.pc = re.u.pc;
            tev.fetch = re.fetchCycle;
            tev.queueReady = re.queueReadyAt;
            tev.insert = re.insertCycle;
            tev.ready = done ? re.readyCycle : now_;
            tev.issue = done ? re.issueCycle : now_;
            tev.execStart = done ? re.execStart : now_;
            tev.complete = done ? re.completeCycle : now_;
            tev.commit = now_;  // the squash cycle
            tev.flags = uint8_t(
                trace::CycleEvent::kFlagWrongPath |
                (re.u.firstUop ? trace::CycleEvent::kFlagFirstUop : 0) |
                (re.replayed ? trace::CycleEvent::kFlagReplayed : 0) |
                (re.u.isLoad() ? trace::CycleEvent::kFlagLoad : 0) |
                (re.wasMiss ? trace::CycleEvent::kFlagDl1Miss : 0));
            obs_->onCommit(tev);
        }
    }
    const size_t flushed = rob_.size() - keep;
    wpSquashedUops_ += flushed;
    while (rob_.size() > keep) {
        // Stale dataflow producer records for recycled dyn ids would
        // trip the invariant check against a *future* µop's sources.
        auto &slot = prodComplete_[rob_.back().dynId % kProdRing];
        if (slot.first == rob_.back().dynId)
            slot = {~0ULL, 0};
        rob_.popBack();
    }
    robLedger_.depart(now_, flushed);

    // Frontend wrong-path µops that never dispatched get no rows.
    while (!frontend_.empty() && frontend_.back().dynId > boundary)
        frontend_.popBack();

    sched_->squashAfter(boundary, now_);

    // Rename-side recovery: the formation table and last-writer map
    // revert to the branch's dispatch; pending pairing windows are
    // dropped (squashAfter already unpended any surviving right-path
    // head). Tags are never rewound: the squash drops the wrong path's
    // references and the pool recycles them. Dyn ids must stay dense
    // for the ROB ring, so their allocator rewinds to just after the
    // branch.
    formation_->restoreToCheckpoint();
    lastWriter_ = ckptLastWriter_;
    haveCkpt_ = false;
    nextDynId_ = boundary + 1;

    wpSynth_.end();
    wpActive_ = false;
    wpSquashBoundary_ = boundary;
}

void
OooCore::doCommit()
{
    int n = 0;
    while (n < params_.commitWidth && !rob_.empty() &&
           rob_.frontCompleted()) {
        RobEntry &re = rob_.front();
        integrity_.require(re.dynId == nextCommitDynId_,
                           verify::IntegrityChecker::Check::RobOrder,
                           [&] {
                               return "committing dyn id " +
                                      std::to_string(re.dynId) +
                                      " but expected " +
                                      std::to_string(nextCommitDynId_) +
                                      " (ROB out of program order)";
                           });
        ++nextCommitDynId_;

        if (golden_ || inj_) {
            // Injected ROB payload corruption is visible only through
            // the golden-model cross-check; the draw still happens
            // without one so campaigns stay seed-deterministic.
            bool corrupt =
                inj_ && inj_->fire(verify::FaultKind::CorruptCommit);
            if (golden_) {
                isa::MicroOp committed = re.u;
                if (corrupt) {
                    if (recording_)
                        ring_.push(now_, verify::SchedEvent::Kind::Inject,
                                   re.dynId, -1, -1, "corrupt-commit");
                    committed.pc ^= 4;
                    committed.memAddr ^= 8;
                }
                golden_->onCommit(committed);
            }
        }

        if (obs_ && obs_->tracing()) {
            trace::CycleEvent tev;
            tev.kind = trace::CycleEvent::Kind::Uop;
            tev.op = uint8_t(re.u.op);
            tev.seq = re.dynId;
            tev.pc = re.u.pc;
            tev.fetch = re.fetchCycle;
            tev.queueReady = re.queueReadyAt;
            tev.insert = re.insertCycle;
            tev.ready = re.readyCycle;
            tev.issue = re.issueCycle;
            tev.execStart = re.execStart;
            tev.complete = re.completeCycle;
            tev.commit = now_;
            for (int s = 0; s < 2; ++s) {
                if (re.srcProducer[size_t(s)] >= 0)
                    tev.dep[size_t(s)] =
                        uint64_t(re.srcProducer[size_t(s)]);
            }
            if (re.mopHeadId >= 0)
                tev.mopId = uint64_t(re.mopHeadId);
            tev.flags = uint8_t(
                (re.u.firstUop ? trace::CycleEvent::kFlagFirstUop : 0) |
                (re.grouped ? trace::CycleEvent::kFlagGrouped : 0) |
                (re.isHead ? trace::CycleEvent::kFlagMopHead : 0) |
                (re.replayed ? trace::CycleEvent::kFlagReplayed : 0) |
                (re.u.isLoad() ? trace::CycleEvent::kFlagLoad : 0) |
                (re.wasMiss ? trace::CycleEvent::kFlagDl1Miss : 0) |
                (re.mispredicted ? trace::CycleEvent::kFlagMispredict : 0));
            obs_->onCommit(tev);
        }

        if (re.u.op == isa::OpClass::StoreData)
            mem_.dataAccess(re.u.memAddr, true);  // commit the store
        if (re.u.firstUop) {
            ++res_.insts;
            GroupClass cls;
            if (re.grouped) {
                if (re.independent)
                    cls = GroupClass::IndependentMop;
                else if (re.u.isValueGenCandidate())
                    cls = GroupClass::MopValueGen;
                else
                    cls = GroupClass::MopNonValueGen;
            } else if (re.u.isMopCandidate()) {
                cls = GroupClass::CandidateNotGrouped;
            } else {
                cls = GroupClass::NotCandidate;
            }
            ++res_.groupCounts[size_t(cls)];
        }
        ++res_.uops;
        rob_.popFront();
        ++n;
    }
    if (n > 0) {
        robLedger_.depart(now_, uint64_t(n));
        lastCommit_ = now_;
    }
}

int
OooCore::doQueueInsert()
{
    // A frontend bubble (nothing deliverable this cycle) is an *empty*
    // insert group: it advances the Figure 11 pending-tail window, so a
    // MOP head whose tail is stuck behind a fetch stall (e.g. its own
    // branch misprediction) reverts to a plain instruction. In
    // contrast, a backpressure stall (ROB/IQ full) holds the latches
    // and does not advance the group.
    bool bubble =
        frontend_.empty() || frontend_.front().queueReadyAt > now_;

    insertStallRob_ = false;
    insertStallIq_ = false;
    int inserted = 0;
    while (inserted < params_.renameWidth && !frontend_.empty()) {
        InFlight &f = frontend_.front();
        if (f.queueReadyAt > now_)
            break;
        if (int(rob_.size()) >= params_.robSize) {
            insertStallRob_ = true;
            break;
        }
        // Conservatively require one free entry even for MOP tails.
        if (!sched_->canInsert(1)) {
            insertStallIq_ = true;
            break;
        }

        core::FormOutcome out = formation_->process(f.u, f.dynId);
        if (out.clearPendingEntry >= 0)
            sched_->clearPending(out.clearPendingEntry, now_);

        sched::SchedOp op;
        op.seq = f.dynId;
        op.op = f.u.op;
        op.dst = out.dst;
        op.src = out.src;
        op.wrongPath = f.wrongPath;

        RobEntry &re = rob_.pushBack();
        re.u = f.u;
        re.dynId = f.dynId;
        re.fetchCycle = f.fetchCycle;
        re.queueReadyAt = f.queueReadyAt;
        re.mispredicted = f.mispredict;
        re.wrongPath = f.wrongPath;
        re.insertCycle = now_;
        for (int s = 0; s < 2; ++s) {
            int16_t r = f.u.src[size_t(s)];
            if (r != isa::kNoReg && r != isa::kZeroReg &&
                r != isa::kFpZeroReg) {
                re.srcProducer[size_t(s)] = lastWriter_[size_t(r)];
            }
        }

        using Role = core::FormOutcome::Role;
        switch (out.role) {
          case Role::Single:
            sched_->insert(op, now_, false);
            break;
          case Role::Head: {
            int e = sched_->insert(op, now_, true);
            formation_->setHeadEntry(f.dynId, e);
            re.isHead = true;
            re.independent = out.independent;
            break;
          }
          case Role::Tail: {
            if (sched_->appendTail(out.headEntry, op, now_,
                                   out.moreExpected)) {
                re.grouped = true;
                re.independent = out.independent;
                re.mopHeadId = int64_t(out.headDynId);
                if (RobEntry *head = robByDynId(out.headDynId)) {
                    head->grouped = true;
                    head->independent = out.independent;
                    head->mopHeadId = int64_t(out.headDynId);
                }
            } else {
                // Source-union overflow: fall back to a solo entry.
                op.dst = formation_->demoteTail(f.u, out.headEntry);
                sched_->clearPending(out.headEntry, now_);
                sched_->insert(op, now_, false);
            }
            break;
          }
        }

        // The entry now names the µop's sources, so the tags its
        // destination mapping displaced may be recycled.
        formation_->releaseDisplaced();
        if (f.u.hasDst())
            lastWriter_[size_t(f.u.dst)] = int64_t(f.dynId);

        // The detector never sees wrong-path µops: pointers persist
        // across squashes, and a squashed stream must not teach the
        // pointer cache pairings no committed path exhibits.
        if (dynMops_ && !f.wrongPath)
            detector_->observe(f.u, f.dynId);

        // The mispredicted branch just dispatched: checkpoint the
        // rename-side state its squash will restore. Every µop
        // dispatched from here until resolution is wrong path.
        if (f.mispredict && params_.wrongPath) {
            formation_->checkpoint();
            ckptLastWriter_ = lastWriter_;
            haveCkpt_ = true;
        }
        frontend_.popFront();
        ++inserted;
    }
    // MOP detection and the Figure 11 group window only matter when
    // grouping is on; non-MOP configurations never read the pointer
    // cache, so feeding the detector would be pure overhead. Static
    // fusion keeps the group window (its adjacency timeout) but never
    // feeds the detector.
    if (params_.sched.mopEnabled && (inserted > 0 || bubble)) {
        if (dynMops_)
            detector_->endGroup(now_);
        for (int e : formation_->groupBoundary())
            sched_->clearPending(e, now_);
    }
    return inserted;
}

void
OooCore::doFetch()
{
    if (now_ < fetchStallUntil_)
        return;
    if (waitingBranch_) {
        // Unresolved mispredict: fetch follows the predicted (wrong)
        // path when enabled, otherwise stalls until resolution.
        if (wpActive_)
            doWrongPathFetch();
        return;
    }
    if (traceDone_)
        return;
    // Keep the frontend from ballooning when the queue stage stalls.
    if (frontend_.size() >= frontendLimit_)
        return;

    for (int slot = 0; slot < params_.fetchWidth; ++slot) {
        if (!havePending_) {
            if (!src_.next(pendingFetch_)) {
                traceDone_ = true;
                return;
            }
            havePending_ = true;
        }
        const isa::MicroOp &u = pendingFetch_;

        // Instruction-cache access at line granularity.
        uint64_t line = u.pc / mem_.il1().lineBytes();
        if (line != lastFetchLine_) {
            int lat = mem_.instAccess(u.pc);
            lastFetchLine_ = line;
            if (lat > mem_.il1().hitLatency()) {
                fetchStallUntil_ = now_ + sched::Cycle(lat);
                return;  // µop stays pending for after the fill
            }
        }

        havePending_ = false;
        if (u.op == isa::OpClass::Nop)
            continue;  // filtered by the decoder (consumes a slot)

        uint64_t dyn_id = nextDynId_++;
        frontend_.pushBack(InFlight{
            u, dyn_id, now_,
            now_ + sched::Cycle(params_.frontendDepth +
                                params_.extraFormationStages)});

        if (!u.isControl())
            continue;

        if (u.op == isa::OpClass::Branch) {
            bpred::Prediction pr = bpred_.predictBranch(u.pc);
            bpred_.update(u.pc, u.taken, u.target, pr);
            if (pr.taken != u.taken || (u.taken && !pr.btbHit)) {
                bool dir_wrong = pr.taken != u.taken;
                if (dir_wrong) {
                    ++res_.mispredicts;
                    waitingBranch_ = true;
                    waitingBranchDynId_ = dyn_id;
                    frontend_.back().mispredict = true;
                    if (params_.wrongPath) {
                        wpSynth_.begin(dyn_id, u.pc,
                                       params_.wrongPathDepth);
                        wpActive_ = true;
                        ++wpEpisodes_;
                    }
                } else {
                    // Direction right, target unknown until decode.
                    fetchStallUntil_ =
                        now_ + sched::Cycle(params_.btbMissPenalty);
                }
                return;
            }
            if (u.taken)
                return;  // fetch stops at the first taken branch
        } else if (u.op == isa::OpClass::Jump) {
            bpred::Prediction pr = bpred_.predictJump(u.pc);
            bpred_.updateBtb(u.pc, u.target);
            if (u.dst == 30)
                bpred_.pushRas(u.pc + 4);  // call: push return address
            if (!pr.btbHit || pr.target != u.target) {
                fetchStallUntil_ =
                    now_ + sched::Cycle(params_.btbMissPenalty);
            }
            return;  // taken control ends the fetch group
        } else {  // JumpInd
            uint64_t ras = (u.src[0] == 30) ? bpred_.popRas() : 0;
            bpred::Prediction pr = bpred_.predictJump(u.pc);
            bpred_.updateBtb(u.pc, u.target);
            bool correct = ras == u.target ||
                           (pr.btbHit && pr.target == u.target);
            if (!correct) {
                ++res_.mispredicts;
                waitingBranch_ = true;
                waitingBranchDynId_ = dyn_id;
                frontend_.back().mispredict = true;
                if (params_.wrongPath) {
                    wpSynth_.begin(dyn_id, u.pc, params_.wrongPathDepth);
                    wpActive_ = true;
                    ++wpEpisodes_;
                }
            }
            return;
        }
    }
}

void
OooCore::doWrongPathFetch()
{
    if (frontend_.size() >= frontendLimit_)
        return;

    for (int slot = 0; slot < params_.fetchWidth; ++slot) {
        const isa::MicroOp *u = wpSynth_.peek();
        if (!u)
            return;  // episode depth exhausted: wait for resolution

        // Wrong-path fetch pays real instruction-cache latency and
        // pollutes real IL1 state (lastFetchLine_ is deliberately not
        // restored at squash — the fetched lines stay resident).
        uint64_t line = u->pc / mem_.il1().lineBytes();
        if (line != lastFetchLine_) {
            int lat = mem_.instAccess(u->pc);
            lastFetchLine_ = line;
            if (lat > mem_.il1().hitLatency()) {
                fetchStallUntil_ = now_ + sched::Cycle(lat);
                return;  // µop stays in the synth for after the fill
            }
        }

        isa::MicroOp wu = *u;
        wpSynth_.pop();
        uint64_t dyn_id = nextDynId_++;
        wu.seq = dyn_id;
        frontend_.pushBack(InFlight{
            wu, dyn_id, now_,
            now_ + sched::Cycle(params_.frontendDepth +
                                params_.extraFormationStages),
            false, true});
        ++wpFetched_;

        // The predictor is neither consulted nor trained on the wrong
        // path (equivalent to an ideal history checkpoint restored at
        // the squash), and wrong-path branches never redirect — the
        // machine is already off-path — but a taken one still ends
        // the fetch group.
        if (wu.op == isa::OpClass::Branch && wu.taken)
            return;
    }
}

bool
OooCore::step()
{
    if (now_ >= params_.maxCycles)
        throw std::runtime_error("cycle guard exceeded");

    completedScratch_.clear();
    mopScratch_.clear();
    sched_->tick(now_, completedScratch_,
                 params_.sched.mopEnabled ? &mopScratch_ : nullptr);
    wpSquashBoundary_ = ~0ULL;
    for (const auto &ev : completedScratch_) {
        // A wrong-path squash earlier in this loop already flushed
        // every younger µop; their same-cycle completions (extracted
        // before the squash ran) must be dropped, not delivered.
        if (ev.seq > wpSquashBoundary_)
            continue;
        handleCompletion(ev);
    }
    if (dynMops_ && params_.lastArrivalFilter) {
        for (const auto &mi : mopScratch_) {
            if (!mi.tailLastArriving)
                continue;
            // Harmful grouping observed: delete the pointer and let
            // detection search for an alternative pair (Figure 12c).
            // Squashed (or wrong-path) heads are skipped: no pointer
            // produced them and none should be excluded.
            if (RobEntry *head = robByDynId(mi.headSeq)) {
                if (!head->wrongPath)
                    ptrCache_.deleteAndExclude(head->u.pc);
            }
        }
    }

    doCommit();

    // Commit-progress watchdog. The scheduler's own watchdog only sees
    // issue progress; a livelock that keeps issuing and killing the
    // same entries (e.g. a corrupted wakeup under the scoreboard
    // policy) slips past it but never commits.
    if (!rob_.empty() && now_ > lastCommit_ &&
        now_ - lastCommit_ > params_.commitWatchdogCycles) {
        std::ostringstream ss;
        ss << "commit watchdog: " << rob_.size()
           << " ROB entries, nothing committed since cycle "
           << lastCommit_ << " (now " << now_ << "); head dyn id "
           << rob_.front().dynId << " op "
           << isa::opClassName(rob_.front().u.op)
           << (rob_.frontCompleted() ? " completed" : " not completed");
        throw sched::DeadlockError(ss.str());
    }

    int inserted = doQueueInsert();
    robLedger_.arrive(now_, uint64_t(inserted));
    if (dynMops_)
        detector_->drain(now_);
    doFetch();

    if (obs_) {
        // Residual slots go to the pipeline-level cause, most specific
        // first: backpressure outranks drain outranks frontend supply.
        obs::StallCause upstream = obs::StallCause::Frontend;
        if (insertStallRob_)
            upstream = obs::StallCause::RobFull;
        else if (insertStallIq_)
            upstream = obs::StallCause::IqFull;
        else if (traceDone_)
            upstream = obs::StallCause::Drain;
        obs_->onCycle(now_, sched_->stallSnapshot(now_), upstream,
                      sched_->occupancy(), int(rob_.size()),
                      int(frontend_.size()), formation_->pendingCount());
    }

    // Attempt a skip only on quiet cycles (no completion, commit or
    // insert): every cycle of an idle gap is quiet, so no opportunity
    // beyond the gap's first cycle is lost, and busy cycles never pay
    // for the next-event fold.
    if (skipEnabled_ && completedScratch_.empty() && inserted == 0 &&
        lastCommit_ != now_)
        maybeSkipIdle();

    ++now_;
    return !(traceDone_ && !havePending_ && frontend_.empty() &&
             rob_.empty());
}

void
OooCore::maybeSkipIdle()
{
    // Skip only states where an executed cycle is provably a no-op:
    // no pending MOP head (the Figure 11 group window advances per
    // cycle) and no completed ROB head (commit would make progress).
    if (formation_->pendingCount() != 0)
        return;
    if (!rob_.empty() && rob_.frontCompleted())
        return;

    // Earliest cycle > now_ at which any state can change. Every
    // term is a lower bound, so landing early merely executes one
    // empty cycle; missing a term would diverge, so each per-cycle
    // activity source contributes one (see DESIGN.md).
    sched::Cycle t = sched_->nextEventCycle(now_);
    auto fold = [&t](sched::Cycle c) {
        if (c < t)
            t = c;
    };
    // Commit-progress watchdog deadline (must throw on schedule).
    if (!rob_.empty())
        fold(lastCommit_ + params_.commitWatchdogCycles + 1);
    // Queue insert: the frontend's head becomes deliverable (only
    // relevant while backpressure would not hold it anyway; blocked
    // inserts are unblocked by commits/frees, i.e. scheduler events).
    if (!frontend_.empty() && int(rob_.size()) < params_.robSize &&
        sched_->canInsert(1)) {
        fold(std::max(frontend_.front().queueReadyAt, now_ + 1));
    }
    // Fetch: the next icache fill / redirect arrival. A resolving
    // branch is a scheduler completion; a full frontend drains only
    // via inserts. While a mispredict is unresolved, fetch is live
    // exactly when wrong-path synthesis still has µops to deliver —
    // omitting that term would skip over wrong-path fetch cycles and
    // diverge from the stepped run (difftest --difftest-skip-idle
    // catches exactly this; see the skipFoldIgnoresSquash mutation).
    bool fetch_live = waitingBranch_
                          ? (wpActive_ && wpSynth_.hasMore())
                          : !traceDone_;
    if (fetch_live && frontend_.size() < frontendLimit_)
        fold(std::max(fetchStallUntil_, now_ + 1));

    if (t == sched::kNoCycle)
        return;  // nothing pending anywhere: the run is ending
    t = std::min(t, sched::Cycle(params_.maxCycles));  // cycle guard
    if (t <= now_ + 1)
        return;

    // Replay the skipped cycles' residual effects: per-cycle
    // occupancy samples, detector pointer writes becoming visible,
    // and the empty-group boundary for every frontend-bubble cycle
    // (the last such call is what a stepped run leaves behind).
    uint64_t gap = t - now_ - 1;
    sched_->noteIdleCycles(gap);
    if (dynMops_) {
        detector_->drain(t - 1);
        sched::Cycle last_bubble = t - 1;
        if (!frontend_.empty() && frontend_.front().queueReadyAt <= t - 1)
            last_bubble = frontend_.front().queueReadyAt - 1;
        if (last_bubble > now_)
            detector_->endGroup(last_bubble);
    }
    res_.skippedCycles += gap;
    now_ = t - 1;  // step()'s increment lands on the event cycle
}

SimResult
OooCore::run(uint64_t max_insts)
{
    uint64_t target = res_.insts + max_insts;
    bool drained = false;
    while (res_.insts < target) {
        if (!step()) {
            drained = true;
            break;
        }
    }
    // End-of-run structural audit: a drained pipeline must leave no
    // issue-queue entry behind (classic leak symptom).
    sched_->auditStructures();
    if (drained) {
        sched_->integrity().require(
            sched_->occupancy() == 0,
            verify::IntegrityChecker::Check::IqAccounting, [&] {
                return "pipeline drained but " +
                       std::to_string(sched_->occupancy()) +
                       " issue-queue entries remain (leak)";
            });
    }
    res_.cycles = now_;
    res_.ipc = now_ ? double(res_.insts) / double(now_) : 0.0;
    res_.iqEntriesInserted = sched_->insertedEntries();
    res_.uopsInserted = sched_->insertedOps();
    res_.replays = sched_->replayInvalidations();
    res_.filterDeletions = ptrCache_.filterDeletions();
    res_.avgIqOccupancy = sched_->occupancyAvg().mean();
    if (obs_) {
        obs_->finish();
        res_.stallSlots = obs_->stalls().slots();
        res_.stallWidth = uint32_t(obs_->stalls().width());
    }
    auditOccupancy();
    return res_;
}

void
OooCore::auditOccupancy()
{
    using Check = verify::IntegrityChecker::Check;
    // auditStructures checked the scheduler's samples against its
    // ledger on the sample clock; here that clock must be the cycle
    // clock, one sample per cycle whether stepped or skipped.
    const uint64_t samples = sched_->occupancyAvg().count();
    integrity_.require(samples == now_, Check::IqAccounting, [&] {
        return "issue-queue occupancy sampled " + std::to_string(samples) +
               " times in " + std::to_string(now_) + " cycles";
    });
    if (!obs_)
        return;
    // The observer samples at the end of each step. The ROB ledger is
    // stamped in cycles, and an entry is in the sample of the cycle it
    // is inserted in and gone from that of the cycle it leaves in. The
    // observer's sample of cycle t is what the scheduler's tick of
    // t + 1 samples, so on the scheduler's clock the horizon is one
    // past the cycle count.
    const stats::Histogram &iq = obs_->iqOccupancy();
    const stats::Histogram &rob = obs_->robOccupancy();
    integrity_.require(iq.total() == now_ && rob.total() == now_,
                       Check::IqAccounting, [&] {
                           return "obs.occ.iq/rob hold " +
                                  std::to_string(iq.total()) + "/" +
                                  std::to_string(rob.total()) +
                                  " samples in " + std::to_string(now_) +
                                  " cycles";
                       });
    integrity_.requireOccupancyLaw(Check::IqAccounting, "obs.occ.iq",
                                   uint64_t(iq.sum()), iq.total(),
                                   sched_->occupancyLedger(),
                                   uint64_t(sched_->occupancy()), now_ + 1);
    integrity_.requireOccupancyLaw(Check::RobOrder, "obs.occ.rob",
                                   uint64_t(rob.sum()), rob.total(),
                                   robLedger_, rob_.size(), now_);
}

void
OooCore::addStats(stats::StatGroup &g) const
{
    g.addFormula("core.cycles", [this] { return double(now_); });
    g.addFormula("core.insts", [this] { return double(res_.insts); });
    g.addFormula("core.uops", [this] { return double(res_.uops); });
    g.addFormula("core.ipc", [this] {
        return now_ ? double(res_.insts) / double(now_) : 0.0;
    }, "committed instructions per cycle");
    g.addFormula("core.mispredicts",
                 [this] { return double(res_.mispredicts); },
                 "fetch-detected branch mispredictions");
    g.addFormula("core.skippedCycles",
                 [this] { return double(res_.skippedCycles); },
                 "idle cycles advanced by the event-driven skipper");
    // Registered only when the feature is on: wrong-path-off stats
    // reports stay byte-identical to pre-feature builds (the CI
    // bit-identity gate compares them verbatim).
    if (params_.wrongPath) {
        g.addFormula("core.wpEpisodes",
                     [this] { return double(wpEpisodes_); },
                     "misprediction episodes with wrong-path fetch");
        g.addFormula("core.wpFetched",
                     [this] { return double(wpFetched_); },
                     "wrong-path µops fetched");
        g.addFormula("core.wpSquashedUops",
                     [this] { return double(wpSquashedUops_); },
                     "wrong-path µops flushed from the ROB at squash");
    }
    g.addFormula("core.groupedFrac",
                 [this] { return res_.groupedFrac(); },
                 "committed instructions inside MOPs");
    g.addFormula("core.mopValueGen", [this] {
        return double(res_.groupCounts[size_t(GroupClass::MopValueGen)]);
    }, "grouped value-generating candidates");
    g.addFormula("core.mopNonValueGen", [this] {
        return double(
            res_.groupCounts[size_t(GroupClass::MopNonValueGen)]);
    });
    g.addFormula("core.independentMop", [this] {
        return double(
            res_.groupCounts[size_t(GroupClass::IndependentMop)]);
    });
    g.addFormula("core.candidateNotGrouped", [this] {
        return double(
            res_.groupCounts[size_t(GroupClass::CandidateNotGrouped)]);
    });
    g.addFormula("core.notCandidate", [this] {
        return double(
            res_.groupCounts[size_t(GroupClass::NotCandidate)]);
    });
    g.addFormula("detect.dependentPairs", [this] {
        return double(detector_->dependentPairs());
    }, "MOP pointers from dependent pairs");
    g.addFormula("detect.independentPairs", [this] {
        return double(detector_->independentPairs());
    });
    g.addFormula("detect.cycleRejects", [this] {
        return double(detector_->cycleRejects());
    }, "pairings forgone by the cycle heuristic");
    g.addFormula("detect.budgetRejects", [this] {
        return double(detector_->budgetRejects());
    }, "pairings exceeding CAM source comparators");
    g.addFormula("detect.ctrlRejects", [this] {
        return double(detector_->ctrlRejects());
    }, "pairings across unencodable control flow");
    g.addFormula("form.groupsFormed", [this] {
        return double(formation_->groupsFormed());
    }, "MOPs actually formed at the queue stage");
    g.addFormula("form.pendingExpired", [this] {
        return double(formation_->pendingExpired());
    }, "heads whose tail missed the insert window");
    g.addFormula("form.verifyFails", [this] {
        return double(formation_->verifyFails());
    }, "pointers rejected by control-flow check");
    g.addFormula("form.demotions", [this] {
        return double(formation_->demotions());
    }, "tails demoted to solo entries");
    g.addFormula("ptrcache.size",
                 [this] { return double(ptrCache_.size()); },
                 "pointers resident with IL1 lines");
    g.addFormula("ptrcache.filterDeletions", [this] {
        return double(ptrCache_.filterDeletions());
    }, "last-arriving-operand deletions");
    g.addFormula("ptrcache.lineEvictions", [this] {
        return double(ptrCache_.lineEvictions());
    });
    g.addFormula("golden.compared", [this] {
        return golden_ ? double(golden_->compared()) : 0.0;
    }, "committed µops cross-checked against the oracle");
    integrity_.addStats(g, "core.integrity");
    sched_->addStats(g);
    if (obs_)
        obs_->addStats(g);
    mem_.addStats(g);
    bpred_.addStats(g);
}

void
OooCore::dumpState(std::ostream &os) const
{
    os << "=== pipeline snapshot at cycle " << now_ << " ===\n"
       << "committed: " << res_.insts << " insts / " << res_.uops
       << " uops; frontend: " << frontend_.size()
       << " µops in flight; ROB: " << rob_.size() << " entries\n";
    size_t show = std::min<size_t>(rob_.size(), 16);
    for (size_t i = 0; i < show; ++i) {
        const RobEntry &re = rob_.at(i);
        os << "  rob[" << i << "] dyn=" << re.dynId << " seq=" << re.u.seq
           << " op=" << isa::opClassName(re.u.op)
           << (rob_.completedAt(i) ? " completed" : " in-flight")
           << (re.grouped ? " grouped" : "")
           << (re.isHead ? " mop-head" : "")
           << (re.wrongPath ? " wrong-path" : "") << "\n";
    }
    if (rob_.size() > show)
        os << "  ... " << rob_.size() - show << " more\n";
    sched_->dumpState(os);
    ring_.dump(os);
}

} // namespace mop::pipeline
