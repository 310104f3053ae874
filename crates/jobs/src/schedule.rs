//! The runner's decisions as a pure state machine.
//!
//! [`Schedule`] decides everything for one job: which chunk goes to
//! which worker, when an answer commits, when a chunk goes back on the
//! queue, when a stalled worker is killed, when a lost worker is
//! replaced, and when the job ends. It does no I/O and reads no clock:
//! the runner in [`crate::fabric`] turns pipe events into [`Input`]s,
//! passes the time in ms with each, and carries out the [`Action`]s
//! that come back, in order.
//!
//! The contract, checked by this module's tests over every
//! interleaving at 2 workers × 3 chunks and over thousands of seeded
//! random schedules at larger sizes:
//!
//! - each chunk commits exactly once;
//! - no chunk is requeued while the worker holding it is alive: only
//!   [`Input::Gone`] requeues, and the shell sends it after reaping the
//!   worker's process;
//! - every fair schedule ends in [`Outcome::Done`], or in
//!   [`Outcome::Failed`] on the attempt cap or the spawn budget.

use std::collections::VecDeque;

/// How many times one chunk may fail (worker death, `chunk_err`, bad
/// seal) before the whole job is declared failed.
pub const MAX_CHUNK_ATTEMPTS: u32 = 5;

/// A worker's name: its spawn ordinal within the job, never reused.
pub(crate) type WorkerId = usize;

/// Something the shell observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Input {
    /// The worker parsed its hello and waits for work.
    Ready(WorkerId),
    /// The worker sent a sealed checkpoint of `chunk` whose header
    /// names this job and that chunk's point range.
    Answer { worker: WorkerId, chunk: u64 },
    /// The worker could not evaluate `chunk` and stays alive.
    ChunkErr { worker: WorkerId, chunk: u64 },
    /// The worker's stream ended or broke, and its process is reaped.
    Gone(WorkerId),
    /// Nothing arrived; only time passed.
    Tick,
}

/// Something the shell must do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Action {
    /// Start a worker process under this name (`respawn`: it replaces
    /// a lost one).
    Spawn { worker: WorkerId, respawn: bool },
    /// Send the worker this chunk.
    Assign { worker: WorkerId, chunk: u64 },
    /// Close the worker's input: there is no more work for it.
    Retire(WorkerId),
    /// Kill the worker's process, because it `stalled` past the
    /// deadline or else answered a chunk it did not hold; its
    /// [`Input::Gone`] follows.
    Kill { worker: WorkerId, stalled: bool },
    /// Write the checkpoint of the answer this input carried.
    Commit { chunk: u64 },
    /// Tear every worker down and record the outcome.
    Finish(Outcome),
}

/// How a job ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Outcome {
    Done,
    /// A budget ran out; the reason is for the job status.
    Failed(String),
}

/// A worker the schedule has spawned and not yet seen gone.
#[derive(Debug, Clone)]
pub(crate) struct Worker {
    pub(crate) id: WorkerId,
    /// The chunk it holds, assigned at `since` (ms).
    pub(crate) chunk: Option<u64>,
    pub(crate) since: u64,
    /// Its input is closed.
    pub(crate) retired: bool,
    /// A kill was ordered: it gets no more work and no second kill.
    pub(crate) killed: bool,
}

/// The coordinator's decisions for one job.
#[derive(Debug, Clone)]
pub(crate) struct Schedule {
    done: Vec<bool>,
    pending: VecDeque<u64>,
    attempts: Vec<u32>,
    workers: Vec<Worker>,
    next_worker: WorkerId,
    spawns_left: u64,
    width: usize,
    stall_ms: u64,
    finished: bool,
    /// Chunks requeued after their worker was lost, and workers
    /// spawned to replace lost ones.
    reassigned: u64,
    restarts: u64,
}

impl Schedule {
    /// A schedule over the chunks `done` does not mark, for `width`
    /// workers that are killed after holding one chunk `stall_ms`.
    pub(crate) fn new(done: Vec<bool>, width: usize, stall_ms: u64) -> Schedule {
        let chunks = done.len() as u64;
        Schedule {
            pending: (0..chunks).filter(|&c| !done[c as usize]).collect(),
            attempts: vec![0; done.len()],
            done,
            workers: Vec::new(),
            next_worker: 0,
            spawns_left: chunks.max(16),
            width: width.max(1),
            stall_ms,
            finished: false,
            reassigned: 0,
            restarts: 0,
        }
    }

    /// The first actions: spawn the workers, or finish a job with
    /// nothing left to do.
    pub(crate) fn start(&mut self) -> Vec<Action> {
        let mut out = Vec::new();
        if !self.finish_if_complete(&mut out) {
            for _ in 0..self.width.min(self.pending.len()) {
                self.spawn(false, &mut out);
            }
        }
        out
    }

    /// Takes one input observed at `now` (ms) and returns what to do.
    /// Deadlines are checked on every input, whatever it is.
    pub(crate) fn step(&mut self, input: Input, now: u64) -> Vec<Action> {
        let mut out = Vec::new();
        if self.finished {
            return out;
        }
        match input {
            Input::Ready(worker) => self.assign_next(worker, now, &mut out),
            Input::Answer { worker, chunk } => {
                if self.holds(worker, chunk) && !self.done[chunk as usize] {
                    self.done[chunk as usize] = true;
                    self.release(worker);
                    out.push(Action::Commit { chunk });
                    if !self.finish_if_complete(&mut out) {
                        self.assign_next(worker, now, &mut out);
                    }
                } else {
                    // A worker only ever answers the chunk it holds:
                    // anything else is a protocol violation.
                    self.kill(worker, false, &mut out);
                }
            }
            Input::ChunkErr { worker, chunk } => {
                if self.holds(worker, chunk) {
                    self.release(worker);
                    if self.requeue(chunk, &mut out) {
                        return out;
                    }
                }
                self.assign_next(worker, now, &mut out);
            }
            Input::Gone(worker) => {
                let Some(at) = self.workers.iter().position(|w| w.id == worker) else {
                    return out;
                };
                let lost = self.workers.remove(at);
                if !lost.retired {
                    if let Some(chunk) = lost.chunk {
                        self.reassigned += 1;
                        if self.requeue(chunk, &mut out) {
                            return out;
                        }
                    }
                    if !self.pending.is_empty() {
                        self.restarts += 1;
                        self.spawn(true, &mut out);
                    }
                }
                self.finish_if_complete(&mut out);
            }
            Input::Tick => {}
        }
        self.check_deadlines(now, &mut out);
        out
    }

    /// Live workers, in spawn order.
    pub(crate) fn workers(&self) -> &[Worker] {
        &self.workers
    }

    /// Chunks requeued after their worker was lost, and replacement
    /// workers spawned.
    pub(crate) fn losses(&self) -> (u64, u64) {
        (self.reassigned, self.restarts)
    }

    fn worker_mut(&mut self, id: WorkerId) -> Option<&mut Worker> {
        self.workers.iter_mut().find(|w| w.id == id)
    }

    fn holds(&self, id: WorkerId, chunk: u64) -> bool {
        self.workers
            .iter()
            .any(|w| w.id == id && w.chunk == Some(chunk))
    }

    fn release(&mut self, id: WorkerId) {
        if let Some(worker) = self.worker_mut(id) {
            worker.chunk = None;
        }
    }

    /// Gives an idle worker the next pending chunk, or retires it when
    /// nothing is pending.
    fn assign_next(&mut self, id: WorkerId, now: u64, out: &mut Vec<Action>) {
        let next = self.pending.front().copied();
        let Some(worker) = self.worker_mut(id) else {
            return;
        };
        if worker.chunk.is_some() || worker.retired || worker.killed {
            return;
        }
        if let Some(chunk) = next {
            worker.chunk = Some(chunk);
            worker.since = now;
            self.pending.pop_front();
            out.push(Action::Assign { worker: id, chunk });
        } else {
            worker.retired = true;
            out.push(Action::Retire(id));
        }
    }

    /// Puts a chunk back on the queue; fails the job and returns `true`
    /// when that was its last allowed attempt.
    fn requeue(&mut self, chunk: u64, out: &mut Vec<Action>) -> bool {
        let tries = &mut self.attempts[chunk as usize];
        *tries += 1;
        if *tries >= MAX_CHUNK_ATTEMPTS {
            let reason = format!("chunk {chunk} failed {tries} times; giving up");
            self.finish(Outcome::Failed(reason), out);
            return true;
        }
        self.pending.push_back(chunk);
        false
    }

    fn spawn(&mut self, respawn: bool, out: &mut Vec<Action>) {
        if self.spawns_left == 0 {
            let reason = "worker respawn budget exhausted".to_string();
            return self.finish(Outcome::Failed(reason), out);
        }
        self.spawns_left -= 1;
        let id = self.next_worker;
        self.next_worker += 1;
        self.workers.push(Worker {
            id,
            chunk: None,
            since: 0,
            retired: false,
            killed: false,
        });
        out.push(Action::Spawn {
            worker: id,
            respawn,
        });
    }

    fn kill(&mut self, id: WorkerId, stalled: bool, out: &mut Vec<Action>) {
        if let Some(worker) = self.worker_mut(id).filter(|w| !w.killed) {
            worker.killed = true;
            out.push(Action::Kill {
                worker: id,
                stalled,
            });
        }
    }

    /// Kills every worker that has held one chunk longer than the
    /// stall deadline; its `Gone` then requeues the chunk.
    fn check_deadlines(&mut self, now: u64, out: &mut Vec<Action>) {
        if self.finished {
            return;
        }
        let stall_ms = self.stall_ms;
        let stalled: Vec<WorkerId> = self
            .workers
            .iter()
            .filter(|w| w.chunk.is_some() && now.saturating_sub(w.since) > stall_ms)
            .map(|w| w.id)
            .collect();
        for id in stalled {
            self.kill(id, true, out);
        }
    }

    fn finish_if_complete(&mut self, out: &mut Vec<Action>) -> bool {
        let complete = self.pending.is_empty() && self.workers.iter().all(|w| w.chunk.is_none());
        if complete && !self.finished {
            self.finish(Outcome::Done, out);
        }
        complete
    }

    fn finish(&mut self, outcome: Outcome, out: &mut Vec<Action>) {
        self.finished = true;
        out.push(Action::Finish(outcome));
    }
}

#[cfg(test)]
mod tests {
    //! A model checker for the contract in the module docs. A [`World`]
    //! pairs a [`Schedule`] with its worker processes as the schedule
    //! can observe them: each one in turn delivers its next input,
    //! whatever the order across workers. A worker delivers `ready`
    //! once; while it computes a chunk it may answer it, fail it with
    //! `chunk_err`, or go silent and stall; at any moment its stream
    //! may end (a crash, a kill taking effect, a bad seal, or EOF after
    //! retirement), which the shell reports as `Gone` after reaping the
    //! process. A killed worker can still deliver what it wrote before
    //! the kill landed. The clock moves only when the model lets time
    //! pass, and then jumps to the next stall deadline.

    use super::*;
    use std::collections::HashSet;

    /// The production default, in ms; the virtual clock only ever
    /// jumps to a deadline, so its value changes no interleaving.
    const STALL_MS: u64 = 30_000;

    /// A worker process, alive until its `Gone` is delivered.
    #[derive(Debug, Clone)]
    struct Proc {
        id: WorkerId,
        /// Its `ready` has been delivered.
        ready: bool,
        /// The chunk it was sent and has not answered.
        computing: Option<u64>,
        /// A kill was ordered.
        killed: bool,
        /// Its input was closed.
        retired: bool,
    }

    /// One nondeterministic move: the next input from worker `i`, or
    /// time passing.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Ready(usize),
        /// Worker `i` answers the chunk it computes.
        Answer(usize),
        /// Worker `i` reports `chunk_err` for it.
        Fail(usize),
        /// Worker `i` answers a chunk someone else committed.
        Stray(usize, u64),
        /// Worker `i`'s stream ends.
        Gone(usize),
        /// The clock jumps past the earliest stall deadline.
        Tick,
    }

    #[derive(Clone)]
    struct World {
        schedule: Schedule,
        procs: Vec<Proc>,
        now: u64,
        /// Commits per chunk.
        commits: Vec<u32>,
        /// Chunks done before the schedule started.
        resumed: Vec<bool>,
        outcome: Option<Outcome>,
    }

    impl World {
        fn new(resumed: Vec<bool>, width: usize) -> Result<World, String> {
            let mut world = World {
                schedule: Schedule::new(resumed.clone(), width, STALL_MS),
                procs: Vec::new(),
                now: 0,
                commits: vec![0; resumed.len()],
                resumed,
                outcome: None,
            };
            let actions = world.schedule.start();
            world.run(actions)?;
            Ok(world)
        }

        /// Every move possible now (stray answers only with `strays`).
        fn steps(&self, strays: bool) -> Vec<Step> {
            let mut steps = Vec::new();
            for (i, proc) in self.procs.iter().enumerate() {
                steps.push(Step::Gone(i));
                if !proc.ready {
                    steps.push(Step::Ready(i));
                }
                if proc.computing.is_some() {
                    steps.extend([Step::Answer(i), Step::Fail(i)]);
                }
                if strays && proc.ready && !proc.retired {
                    // A committed chunk stays committed, so the answer
                    // is stray whenever it is read.
                    let committed = (0..self.commits.len() as u64)
                        .filter(|&chunk| self.commits[chunk as usize] > 0);
                    steps.extend(committed.map(|chunk| Step::Stray(i, chunk)));
                }
            }
            if self.next_deadline().is_some() {
                steps.push(Step::Tick);
            }
            steps
        }

        /// When the earliest stall deadline passes, if any worker can
        /// stall.
        fn next_deadline(&self) -> Option<u64> {
            if self.outcome.is_some() {
                return None;
            }
            self.schedule
                .workers
                .iter()
                .filter(|w| w.chunk.is_some() && !w.killed)
                .map(|w| w.since + STALL_MS + 1)
                .min()
        }

        fn apply(&mut self, step: Step) -> Result<(), String> {
            let input = match step {
                Step::Ready(i) => {
                    self.procs[i].ready = true;
                    Input::Ready(self.procs[i].id)
                }
                Step::Answer(i) | Step::Fail(i) => {
                    let proc = &mut self.procs[i];
                    let chunk = proc.computing.take().expect("only busy workers answer");
                    match step {
                        Step::Answer(_) => Input::Answer {
                            worker: proc.id,
                            chunk,
                        },
                        _ => Input::ChunkErr {
                            worker: proc.id,
                            chunk,
                        },
                    }
                }
                Step::Stray(i, chunk) => Input::Answer {
                    worker: self.procs[i].id,
                    chunk,
                },
                Step::Gone(i) => Input::Gone(self.procs.remove(i).id),
                Step::Tick => {
                    self.now = self.next_deadline().expect("ticks only toward a deadline");
                    Input::Tick
                }
            };
            let actions = self.schedule.step(input, self.now);
            self.run(actions)?;
            self.check_safety()
        }

        /// Carries out actions the way the shell does.
        fn run(&mut self, actions: Vec<Action>) -> Result<(), String> {
            for action in actions {
                if self.outcome.is_some() {
                    return Err(format!("{action:?} after the job finished"));
                }
                match action {
                    Action::Spawn { worker, .. } => self.procs.push(Proc {
                        id: worker,
                        ready: false,
                        computing: None,
                        killed: false,
                        retired: false,
                    }),
                    Action::Assign { worker, chunk } => {
                        let proc = self.proc(worker)?;
                        if proc.killed || proc.retired || proc.computing.is_some() {
                            return Err(format!("chunk {chunk} sent to unavailable {worker}"));
                        }
                        proc.computing = Some(chunk);
                    }
                    Action::Retire(worker) => self.proc(worker)?.retired = true,
                    Action::Kill { worker, .. } => self.proc(worker)?.killed = true,
                    Action::Commit { chunk } => {
                        let commits = &mut self.commits[chunk as usize];
                        *commits += 1;
                        if *commits > 1 || self.resumed[chunk as usize] {
                            return Err(format!("chunk {chunk} committed twice"));
                        }
                    }
                    Action::Finish(outcome) => {
                        // The shell kills and reaps every worker.
                        self.procs.clear();
                        self.outcome = Some(outcome);
                    }
                }
            }
            Ok(())
        }

        fn proc(&mut self, worker: WorkerId) -> Result<&mut Proc, String> {
            self.procs
                .iter_mut()
                .find(|p| p.id == worker)
                .ok_or_else(|| format!("action on reaped worker {worker}"))
        }

        /// No chunk is back on the queue, with another worker, or
        /// committed while a live worker still computes it.
        fn check_safety(&self) -> Result<(), String> {
            for proc in &self.procs {
                let Some(chunk) = proc.computing else {
                    continue;
                };
                let elsewhere = self
                    .schedule
                    .workers
                    .iter()
                    .any(|w| w.id != proc.id && w.chunk == Some(chunk));
                if self.schedule.pending.contains(&chunk)
                    || elsewhere
                    || self.commits[chunk as usize] > 0
                {
                    return Err(format!(
                        "chunk {chunk} requeued while live worker {} computes it",
                        proc.id
                    ));
                }
            }
            Ok(())
        }

        /// A state with no move left must be a finished job: done with
        /// every chunk committed once, or failed on a budget.
        fn check_end(&self) -> Result<(), String> {
            match &self.outcome {
                Some(Outcome::Done) => {
                    let once = self
                        .commits
                        .iter()
                        .zip(&self.resumed)
                        .all(|(&commits, &resumed)| commits == u32::from(!resumed));
                    if once {
                        Ok(())
                    } else {
                        Err(format!("done with commits {:?}", self.commits))
                    }
                }
                Some(Outcome::Failed(reason))
                    if reason.contains("giving up") || reason.contains("budget") =>
                {
                    Ok(())
                }
                other => Err(format!("stuck with outcome {other:?}")),
            }
        }

        /// The state up to what cannot change the future: workers
        /// become their rank in spawn order; chunks are relabeled in
        /// the order of their queue position, holder and history (the
        /// schedule treats chunks alike, so states that differ only in
        /// chunk names behave alike); a stalling worker's start time
        /// becomes its rank among theirs (the clock only jumps to the
        /// earliest deadline, so only their order matters); and status
        /// counters are left out.
        fn fingerprint(&self) -> Vec<u64> {
            let s = &self.schedule;
            let chunks = s.done.len();
            let holder = |c: u64| s.workers.iter().position(|w| w.chunk == Some(c));
            let queued = |c: u64| s.pending.iter().position(|&p| p == c);
            let mut order: Vec<u64> = (0..chunks as u64).collect();
            order.sort_by_key(|&c| {
                let i = c as usize;
                let history = (s.done[i], s.attempts[i], self.commits[i], self.resumed[i]);
                (queued(c), holder(c), history)
            });
            let mut label = vec![0; chunks];
            for (rank, &c) in order.iter().enumerate() {
                label[c as usize] = rank as u64;
            }
            let chunk = |c: Option<u64>| c.map_or(u64::MAX, |c| label[c as usize]);
            let mut starts: Vec<u64> = s
                .workers
                .iter()
                .filter(|w| w.chunk.is_some() && !w.killed)
                .map(|w| w.since)
                .collect();
            starts.sort_unstable();
            starts.dedup();
            let mut ids: Vec<WorkerId> = s.workers.iter().map(|w| w.id).collect();
            ids.extend(self.procs.iter().map(|p| p.id));
            ids.sort_unstable();
            ids.dedup();
            let rank = |id: WorkerId| ids.binary_search(&id).expect("a known worker") as u64;
            let mut key: Vec<u64> = Vec::with_capacity(64);
            for &c in &order {
                let i = c as usize;
                key.extend([
                    u64::from(s.done[i]),
                    u64::from(s.attempts[i]),
                    u64::from(self.commits[i]),
                    u64::from(self.resumed[i]),
                ]);
            }
            key.extend(s.pending.iter().map(|&c| label[c as usize]));
            key.extend([u64::MAX, s.spawns_left, u64::from(s.finished)]);
            for w in &s.workers {
                let start = match w.chunk {
                    Some(_) if !w.killed => starts.binary_search(&w.since).unwrap_or(0) as u64,
                    _ => u64::MAX,
                };
                key.extend([
                    rank(w.id),
                    chunk(w.chunk),
                    start,
                    u64::from(w.retired),
                    u64::from(w.killed),
                ]);
            }
            key.push(u64::MAX);
            for p in &self.procs {
                key.extend([
                    rank(p.id),
                    u64::from(p.ready),
                    chunk(p.computing),
                    u64::from(p.killed),
                    u64::from(p.retired),
                ]);
            }
            key.push(match self.outcome {
                None => 0,
                Some(Outcome::Done) => 1,
                Some(Outcome::Failed(_)) => 2,
            });
            key
        }
    }

    /// What an exhaustive search saw.
    #[derive(Debug, Default)]
    struct Explored {
        states: usize,
        depth: usize,
        done: usize,
        /// Failed end states on the attempt cap, then on the spawn
        /// budget.
        capped: usize,
        out_of_spawns: usize,
    }

    /// Breadth-first search over every interleaving from `world`,
    /// deduplicating states by [`World::fingerprint`]; the first violation found
    /// comes back with the steps that lead to it.
    fn explore(world: World) -> Result<Explored, String> {
        let mut seen = HashSet::from([world.fingerprint()]);
        let mut frontier = vec![(world, Vec::<Step>::new())];
        let mut explored = Explored::default();
        while !frontier.is_empty() {
            explored.depth += 1;
            let mut next = Vec::new();
            for (world, path) in frontier {
                explored.states += 1;
                let steps = world.steps(false);
                if steps.is_empty() {
                    world
                        .check_end()
                        .map_err(|err| format!("{err} after {path:?}"))?;
                    match &world.outcome {
                        Some(Outcome::Done) => explored.done += 1,
                        Some(Outcome::Failed(why)) if why.contains("budget") => {
                            explored.out_of_spawns += 1;
                        }
                        _ => explored.capped += 1,
                    }
                }
                for step in steps {
                    let mut after = world.clone();
                    let mut trail = path.clone();
                    trail.push(step);
                    after
                        .apply(step)
                        .map_err(|err| format!("{err} after {trail:?}"))?;
                    if seen.insert(after.fingerprint()) {
                        next.push((after, trail));
                    }
                }
            }
            frontier = next;
        }
        Ok(explored)
    }

    /// Every interleaving at 2 workers × 3 chunks, with the production
    /// attempt cap and spawn budget: crashes, kills, stalls,
    /// `chunk_err`s and bad seals at any point, inputs in any order
    /// across workers.
    #[test]
    fn every_interleaving_keeps_the_contract() {
        let world = World::new(vec![false; 3], 2).expect("start");
        let explored = explore(world).unwrap_or_else(|violation| panic!("{violation}"));
        println!(
            "schedule model: {} states explored to depth {}; end states: {} done, \
             {} failed on the attempt cap, {} on the spawn budget",
            explored.states, explored.depth, explored.done, explored.capped, explored.out_of_spawns
        );
        assert!(
            explored.done > 0 && explored.capped > 0 && explored.out_of_spawns > 0,
            "every kind of end is reachable: {explored:?}"
        );
    }

    /// A splitmix64 stream: deterministic per seed, no dependencies.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// How likely each move is in a random schedule: the ordinary
    /// conversation dominates, faults are rare, and a killed process
    /// dies soon.
    fn weight(world: &World, step: Step) -> u64 {
        match step {
            Step::Ready(_) | Step::Answer(_) => 20,
            Step::Gone(i) if world.procs[i].killed || world.procs[i].retired => 20,
            Step::Fail(_) | Step::Stray(..) | Step::Gone(_) | Step::Tick => 1,
        }
    }

    /// One seeded random schedule to its end; returns the outcome.
    fn random_run(seed: u64) -> Result<Outcome, String> {
        let mut rng = Rng(seed);
        let chunks = 1 + rng.below(24) as usize;
        let width = 1 + rng.below(4) as usize;
        let resumed: Vec<bool> = (0..chunks).map(|_| rng.below(5) == 0).collect();
        let strays = rng.below(4) == 0;
        let mut world = World::new(resumed, width)?;
        for _ in 0..100_000 {
            let steps = world.steps(strays);
            if steps.is_empty() {
                world.check_end()?;
                return Ok(world.outcome.expect("checked"));
            }
            let weights: Vec<u64> = steps.iter().map(|&step| weight(&world, step)).collect();
            let mut pick = rng.below(weights.iter().sum());
            let at = weights
                .iter()
                .position(|&w| {
                    let hit = pick < w;
                    pick = pick.saturating_sub(w);
                    hit
                })
                .expect("pick below the total weight");
            world.apply(steps[at])?;
        }
        Err("no end after 100000 steps".to_string())
    }

    /// Thousands of seeded schedules at up to 4 workers × 24 chunks,
    /// some chunks already resumed, some workers answering chunks they
    /// were never sent.
    #[test]
    fn seeded_random_schedules_keep_the_contract() {
        let (mut done, mut failed) = (0, 0);
        for seed in 0..10_000 {
            match random_run(seed) {
                Ok(Outcome::Done) => done += 1,
                Ok(Outcome::Failed(_)) => failed += 1,
                Err(violation) => panic!("seed {seed}: {violation}"),
            }
        }
        assert!(done > 3000 && failed > 0, "{done} done, {failed} failed");
    }

    /// While one worker keeps committing every 10 ms, a stalled one is
    /// still killed at its deadline: deadlines are checked on every
    /// input, not only when the event stream goes quiet.
    #[test]
    fn a_stall_is_killed_on_time_while_another_worker_answers() {
        let chunks = 10_000;
        let mut schedule = Schedule::new(vec![false; chunks], 2, STALL_MS);
        let spawned = schedule.start();
        assert_eq!(spawned.len(), 2);
        assert_eq!(
            schedule.step(Input::Ready(0), 0),
            [Action::Assign {
                worker: 0,
                chunk: 0
            }]
        );
        assert_eq!(
            schedule.step(Input::Ready(1), 0),
            [Action::Assign {
                worker: 1,
                chunk: 1
            }]
        );
        let mut held = 1;
        let mut now = 0;
        loop {
            now += 10;
            let actions = schedule.step(
                Input::Answer {
                    worker: 1,
                    chunk: held,
                },
                now,
            );
            assert_eq!(actions[0], Action::Commit { chunk: held });
            let Action::Assign { chunk, .. } = actions[1] else {
                panic!("worker 1 gets its next chunk: {actions:?}");
            };
            held = chunk;
            if now <= STALL_MS {
                assert_eq!(actions.len(), 2, "no kill before the deadline: {actions:?}");
            } else {
                assert_eq!(
                    actions[2..],
                    [Action::Kill {
                        worker: 0,
                        stalled: true
                    }],
                    "killed at the first input past the deadline"
                );
                break;
            }
        }
        assert_eq!(now, STALL_MS + 10);
    }

    #[test]
    fn a_resumed_job_with_nothing_left_finishes_without_workers() {
        let mut schedule = Schedule::new(vec![true; 4], 3, STALL_MS);
        assert_eq!(schedule.start(), [Action::Finish(Outcome::Done)]);
        assert!(schedule.step(Input::Tick, 1).is_empty());
    }
}
