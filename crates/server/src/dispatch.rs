//! The reactor's decisions as a pure state machine.
//!
//! [`Dispatch`] decides what happens to every connection the reactor
//! holds: admission at accept, the queue-full shed, inline answers,
//! parking, the lingering close, the worker hand-back and the drain. It
//! does no I/O and reads no clock: the reactor ([`crate::reactor`])
//! turns syscalls and core events into [`Input`]s and carries out the
//! one [`Action`] each gives back. Its counts are plain fields that only
//! the reactor thread changes.
//!
//! The contract, checked by this module's tests over every
//! interleaving at 2 workers, 3 connections, queue depth 2 (and 1) and
//! `max_connections` 2, with a stop or a lost connection at any step,
//! and over seeded random schedules at larger sizes:
//!
//! - every admitted request is answered exactly once, or shed with 503
//!   before dispatch;
//! - the drain ends, and no answer queued before the stop is dropped;
//! - the in-flight count never leaks, a lost connection included;
//! - lingering sockets never count toward `max_connections`;
//! - exempt routes are answered on a full queue.

/// Something the reactor observed about one connection, or the stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Input {
    Accepted,
    /// The core parsed a request and the queue took it, or refused it;
    /// an `exempt` route has an inline answer.
    Queued,
    Refused {
        exempt: bool,
    },
    /// The core's `Bad`, `NeedMore` and `Closed` events.
    Bad,
    NeedMore,
    Closed,
    /// A worker gave the connection back, or lost it to a panic.
    Returned,
    Lost,
    /// The server stops; the reactor has dropped the listener.
    Stop,
    /// A deadline passed with nothing to answer, the peer closed a
    /// lingering socket, or the socket failed: it leaves the parked
    /// count, or the `lingering` one once its core is closed.
    Gone {
        lingering: bool,
    },
}

/// What the reactor does with the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Action {
    /// Arm it for read readiness and keep it in the slab.
    Park,
    /// Nothing: the queue has it until a worker gives it back.
    Queue,
    /// Write the inline answer, then go on with the buffered input.
    Answer,
    /// Go on with the buffered input.
    Serve,
    /// Answer 503 + `Retry-After` with this reason, then linger.
    Shed(&'static str),
    /// Close after the response: FIN, then discard input until the peer
    /// closes or the core's deadline passes.
    Linger,
    /// Drop it; for [`Input::Stop`], every parked connection.
    Drop,
}

/// Where the dispatch counts a connection: open and held by the reactor,
/// queued or held by a worker, or closed and discarding input (holding
/// no worker, and not counted toward `max_connections`).
#[derive(Debug, Clone, Copy)]
enum Place {
    Parked,
    InFlight,
    Lingering,
}
use Place::{InFlight, Lingering, Parked};

const AT_CAP: Action = Action::Shed("connection limit reached");
const QUEUE_FULL: Action = Action::Shed("admission queue full");

/// The reactor's decisions and the counts behind them.
#[derive(Debug, Clone)]
pub(crate) struct Dispatch {
    max_connections: usize,
    parked: usize,
    inflight: usize,
    lingering: usize,
    draining: bool,
}

impl Dispatch {
    /// Sheds accepts past `max_connections` (at least 1) open connections.
    pub(crate) fn new(max_connections: usize) -> Dispatch {
        Dispatch {
            max_connections: max_connections.max(1),
            parked: 0,
            inflight: 0,
            lingering: 0,
            draining: false,
        }
    }

    /// Takes one input and returns what to do: the one transition table.
    pub(crate) fn step(&mut self, input: Input) -> Action {
        let (from, to, action) = match input {
            Input::Accepted if self.parked + self.inflight >= self.max_connections => {
                (None, Some(Lingering), AT_CAP)
            }
            Input::Accepted => (None, Some(Parked), Action::Park),
            Input::Queued => (Some(Parked), Some(InFlight), Action::Queue),
            // Health and debug routes answer even when saturated: that is
            // when the observability plane matters most.
            Input::Refused { exempt: true } | Input::Bad => return Action::Answer,
            Input::Refused { exempt: false } => (Some(Parked), Some(Lingering), QUEUE_FULL),
            Input::NeedMore if !self.draining => return Action::Park,
            Input::NeedMore | Input::Closed => (Some(Parked), Some(Lingering), Action::Linger),
            Input::Returned if self.draining => (Some(InFlight), Some(Lingering), Action::Linger),
            Input::Returned => (Some(InFlight), Some(Parked), Action::Serve),
            Input::Lost => (Some(InFlight), None, Action::Drop),
            Input::Stop => {
                self.draining = true;
                self.parked = 0;
                return Action::Drop;
            }
            Input::Gone { lingering: true } => (Some(Lingering), None, Action::Drop),
            Input::Gone { lingering: false } => (Some(Parked), None, Action::Drop),
        };
        if let Some(from) = from {
            *self.count(from) -= 1;
        }
        if let Some(to) = to {
            *self.count(to) += 1;
        }
        action
    }

    /// Whether the server is stopping: every answer announces close.
    pub(crate) fn draining(&self) -> bool {
        self.draining
    }

    /// Whether the drain is over: nothing parked, in flight or lingering.
    pub(crate) fn done(&self) -> bool {
        self.draining && self.parked + self.inflight + self.lingering == 0
    }

    fn count(&mut self, place: Place) -> &mut usize {
        match place {
            Parked => &mut self.parked,
            InFlight => &mut self.inflight,
            Lingering => &mut self.lingering,
        }
    }
}

#[cfg(test)]
mod tests {
    //! A model checker for the contract in the module docs. A [`World`]
    //! pairs a [`Dispatch`] with the reactor shell as `crate::reactor`
    //! drives it, the bounded queue, the workers and the clients. Any
    //! client may connect, send a request (plain, to an exempt route, or
    //! malformed and closing), half-close, or let its deadline pass with
    //! or without a partial request buffered; any worker may pop the
    //! queue, answer (keeping the connection or closing it) or lose its
    //! connection to a panic; a lingering socket may end; and the stop
    //! may come at any step. Each request's fate is checked when it is
    //! decided, the counts after every step, and the drain at the end.

    use super::*;
    use std::collections::{HashSet, VecDeque};

    /// Where a client's connection is.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Conn {
        Unopened,
        Parked,
        Queued,
        Working,
        Lingering,
        Gone,
    }

    /// What a client sends.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Kind {
        Plain,
        Exempt,
        /// Malformed past recovery: 400, then close.
        Bad,
    }

    /// One nondeterministic move.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Connect(usize),
        Send(usize, Kind),
        /// Worker `w` takes the head of the queue.
        Pop(usize),
        /// Worker `w` answers; the answer's fate closes.
        Answer(usize, bool),
        /// Worker `w` panics and loses its connection.
        Lose(usize),
        Stop,
        /// Client `c`'s deadline passes (with a partial request
        /// buffered), or its lingering socket ends.
        Expire(usize, bool),
        /// Client `c` half-closes its parked connection.
        Hangup(usize),
    }

    /// The sizes a world runs at.
    #[derive(Debug, Clone, Copy)]
    struct Scope {
        workers: usize,
        conns: usize,
        depth: usize,
        max_connections: usize,
        /// Requests each client sends at most.
        requests: usize,
    }

    /// The current request's outcome so far.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
    struct Fate {
        queued: bool,
        answered: bool,
        shed: bool,
    }

    /// Notable transitions, for the coverage check.
    const SHED_AT_ACCEPT: u8 = 1;
    const SHED_ON_FULL_QUEUE: u8 = 2;
    const EXEMPT_ON_FULL_QUEUE: u8 = 4;
    const LOST: u8 = 8;
    const RETURNED_WHILE_DRAINING: u8 = 16;
    const ACCEPTED_PAST_LINGERERS: u8 = 32;
    const ALL: u8 = 63;

    #[derive(Clone)]
    struct World {
        scope: Scope,
        dispatch: Dispatch,
        conns: Vec<Conn>,
        sent: Vec<usize>,
        fates: Vec<Fate>,
        queue: VecDeque<usize>,
        workers: Vec<Option<usize>>,
        stopped: bool,
        /// What the last step did (not part of the state).
        flags: u8,
    }

    impl World {
        fn new(scope: Scope) -> World {
            World {
                scope,
                dispatch: Dispatch::new(scope.max_connections),
                conns: vec![Conn::Unopened; scope.conns],
                sent: vec![0; scope.conns],
                fates: vec![Fate::default(); scope.conns],
                queue: VecDeque::new(),
                workers: vec![None; scope.workers],
                stopped: false,
                flags: 0,
            }
        }

        fn count(&self, state: Conn) -> usize {
            self.conns.iter().filter(|&&c| c == state).count()
        }

        /// Every move possible now; none once the reactor has exited.
        fn steps(&self) -> Vec<Step> {
            let mut steps = Vec::new();
            if self.dispatch.done() {
                return steps;
            }
            for (c, &conn) in self.conns.iter().enumerate() {
                match conn {
                    Conn::Unopened if !self.stopped => steps.push(Step::Connect(c)),
                    Conn::Parked => {
                        if self.sent[c] < self.scope.requests {
                            steps.extend(
                                [Kind::Plain, Kind::Exempt, Kind::Bad].map(|k| Step::Send(c, k)),
                            );
                        }
                        steps.extend([
                            Step::Expire(c, false),
                            Step::Expire(c, true),
                            Step::Hangup(c),
                        ]);
                    }
                    Conn::Lingering => steps.push(Step::Expire(c, false)),
                    _ => {}
                }
            }
            for (w, held) in self.workers.iter().enumerate() {
                match held {
                    None if !self.queue.is_empty() => steps.push(Step::Pop(w)),
                    Some(_) => {
                        steps.extend([Step::Answer(w, false), Step::Answer(w, true), Step::Lose(w)])
                    }
                    None => {}
                }
            }
            if !self.stopped {
                steps.push(Step::Stop);
            }
            steps
        }

        /// Feeds `input` to the dispatch and requires one of `allowed`.
        fn expect(&mut self, input: Input, allowed: &[Action]) -> Result<Action, String> {
            let action = self.dispatch.step(input);
            let ok = allowed.iter().any(|a| match (a, action) {
                (Action::Shed(_), Action::Shed(_)) => true,
                (a, b) => *a == b,
            });
            if ok {
                Ok(action)
            } else {
                Err(format!(
                    "{input:?} gave {action:?}, expected one of {allowed:?}"
                ))
            }
        }

        /// The shell after an inline answer or a hand-back: the next
        /// core event is `Closed` for a closing fate, else `NeedMore`.
        fn settle(&mut self, c: usize, close: bool) -> Result<(), String> {
            let input = if close {
                Input::Closed
            } else {
                Input::NeedMore
            };
            self.conns[c] = match self.expect(input, &[Action::Park, Action::Linger])? {
                Action::Park if !close && !self.dispatch.draining() => Conn::Parked,
                Action::Linger if close || self.dispatch.draining() => Conn::Lingering,
                action => return Err(format!("{input:?} gave {action:?}")),
            };
            Ok(())
        }

        fn apply(&mut self, step: Step) -> Result<(), String> {
            self.flags = 0;
            match step {
                Step::Connect(c) => {
                    let open = self.count(Conn::Parked)
                        + self.count(Conn::Queued)
                        + self.count(Conn::Working);
                    let full = open >= self.scope.max_connections;
                    let action = self.expect(Input::Accepted, &[Action::Park, Action::Shed("")])?;
                    if full != matches!(action, Action::Shed(_)) {
                        return Err(format!("accept with {open} open gave {action:?}"));
                    }
                    if !full && self.count(Conn::Lingering) > 0 {
                        self.flags |= ACCEPTED_PAST_LINGERERS;
                    }
                    if full {
                        self.flags |= SHED_AT_ACCEPT;
                        self.conns[c] = Conn::Lingering;
                    } else {
                        self.conns[c] = Conn::Parked;
                    }
                }
                Step::Send(c, Kind::Bad) => {
                    self.sent[c] += 1;
                    self.fates[c] = Fate::default();
                    self.expect(Input::Bad, &[Action::Answer])?;
                    self.fates[c].answered = true;
                    self.settle(c, true)?;
                }
                Step::Send(c, kind) => {
                    self.sent[c] += 1;
                    self.fates[c] = Fate::default();
                    let refused = self.queue.len() >= self.scope.depth;
                    if !refused {
                        self.queue.push_back(c);
                    }
                    let exempt = kind == Kind::Exempt;
                    let input = if refused {
                        Input::Refused { exempt }
                    } else {
                        Input::Queued
                    };
                    match (refused, exempt) {
                        (false, _) => {
                            self.expect(input, &[Action::Queue])?;
                            self.fates[c].queued = true;
                            self.conns[c] = Conn::Queued;
                        }
                        (true, true) => {
                            self.expect(input, &[Action::Answer])?;
                            self.flags |= EXEMPT_ON_FULL_QUEUE;
                            self.fates[c].answered = true;
                            self.settle(c, false)?;
                        }
                        (true, false) => {
                            self.expect(input, &[Action::Shed("")])?;
                            self.flags |= SHED_ON_FULL_QUEUE;
                            self.fates[c].shed = true;
                            self.conns[c] = Conn::Lingering;
                        }
                    }
                }
                Step::Pop(w) => {
                    let c = self.queue.pop_front().expect("pops only a non-empty queue");
                    self.workers[w] = Some(c);
                    self.conns[c] = Conn::Working;
                }
                Step::Answer(w, close) => {
                    let c = self.workers[w].take().expect("only a busy worker answers");
                    let fate = &mut self.fates[c];
                    if fate.answered || fate.shed || !fate.queued {
                        return Err(format!("client {c}'s request answered again: {fate:?}"));
                    }
                    fate.answered = true;
                    if self.expect(Input::Returned, &[Action::Serve, Action::Linger])?
                        == Action::Linger
                    {
                        if !self.dispatch.draining() {
                            return Err("a returned connection lingers while serving".into());
                        }
                        self.flags |= RETURNED_WHILE_DRAINING;
                        self.conns[c] = Conn::Lingering;
                    } else if self.dispatch.draining() {
                        return Err("a returned connection is served during the drain".into());
                    } else {
                        self.settle(c, close)?;
                    }
                }
                Step::Lose(w) => {
                    let c = self.workers[w]
                        .take()
                        .expect("only a busy worker loses one");
                    self.expect(Input::Lost, &[Action::Drop])?;
                    self.flags |= LOST;
                    self.conns[c] = Conn::Gone;
                }
                Step::Stop => {
                    self.stopped = true;
                    self.expect(Input::Stop, &[Action::Drop])?;
                    for conn in &mut self.conns {
                        if *conn == Conn::Parked {
                            *conn = Conn::Gone;
                        }
                    }
                }
                Step::Expire(c, true) => {
                    // The core answers the cut-off request 408 and closes.
                    self.expect(Input::Bad, &[Action::Answer])?;
                    self.settle(c, true)?;
                }
                Step::Expire(c, false) => {
                    let lingering = self.conns[c] == Conn::Lingering;
                    self.expect(Input::Gone { lingering }, &[Action::Drop])?;
                    self.conns[c] = Conn::Gone;
                }
                Step::Hangup(c) => self.settle(c, true)?,
            }
            self.check()
        }

        /// The dispatch's counts match the world, and a finished drain
        /// leaves nothing behind.
        fn check(&self) -> Result<(), String> {
            let d = &self.dispatch;
            let counts = (d.parked, d.inflight, d.lingering);
            let world = (
                self.count(Conn::Parked),
                self.count(Conn::Queued) + self.count(Conn::Working),
                self.count(Conn::Lingering),
            );
            if counts != world {
                return Err(format!("dispatch counts {counts:?}, world {world:?}"));
            }
            if d.done() && !(self.queue.is_empty() && self.workers.iter().all(Option::is_none)) {
                return Err("the drain ended with work queued or held".into());
            }
            Ok(())
        }

        /// A state with no move left is a finished drain.
        fn check_end(&self) -> Result<(), String> {
            if self.stopped && self.dispatch.done() {
                Ok(())
            } else {
                Err(format!(
                    "stuck: {:?}, conns {:?}",
                    self.dispatch, self.conns
                ))
            }
        }

        /// The state up to what cannot change the future.
        fn fingerprint(&self) -> Vec<u8> {
            let d = &self.dispatch;
            let mut key = vec![
                d.parked as u8,
                d.inflight as u8,
                d.lingering as u8,
                u8::from(d.draining),
                u8::from(self.stopped),
            ];
            for c in 0..self.conns.len() {
                let fate = self.fates[c];
                key.extend([
                    self.conns[c] as u8,
                    self.sent[c] as u8,
                    u8::from(fate.queued) | u8::from(fate.answered) << 1 | u8::from(fate.shed) << 2,
                ]);
            }
            key.push(u8::MAX);
            key.extend(self.queue.iter().map(|&c| c as u8));
            key.push(u8::MAX);
            key.extend(self.workers.iter().map(|w| w.map_or(u8::MAX, |c| c as u8)));
            key
        }
    }

    /// What an exhaustive search saw.
    #[derive(Debug, Default)]
    struct Explored {
        states: usize,
        depth: usize,
        ends: usize,
        flags: u8,
    }

    /// Breadth-first search over every interleaving from `world`,
    /// deduplicating states by [`World::fingerprint`]; the first
    /// violation comes back with the steps that lead to it.
    fn explore(world: World) -> Result<Explored, String> {
        let mut seen = HashSet::from([world.fingerprint()]);
        let mut frontier = vec![(world, Vec::<Step>::new())];
        let mut explored = Explored::default();
        while !frontier.is_empty() {
            explored.depth += 1;
            let mut next = Vec::new();
            for (world, path) in frontier {
                explored.states += 1;
                let steps = world.steps();
                if steps.is_empty() {
                    world
                        .check_end()
                        .map_err(|err| format!("{err} after {path:?}"))?;
                    explored.ends += 1;
                }
                for step in steps {
                    let mut after = world.clone();
                    let mut trail = path.clone();
                    trail.push(step);
                    after
                        .apply(step)
                        .map_err(|err| format!("{err} after {trail:?}"))?;
                    explored.flags |= after.flags;
                    if seen.insert(after.fingerprint()) {
                        next.push((after, trail));
                    }
                }
            }
            frontier = next;
        }
        Ok(explored)
    }

    /// Every interleaving at 2 workers, 3 connections, queue depth 2 and
    /// `max_connections` 2, each client sending up to 2 requests. There
    /// the cap keeps the queue from filling (in-flight work counts toward
    /// it), so the same search also runs at queue depth 1, where the
    /// queue-full shed and the exempt inline answer are reachable.
    #[test]
    fn every_interleaving_keeps_the_contract() {
        let mut flags = 0;
        for depth in [2, 1] {
            let started = std::time::Instant::now();
            let scope = Scope {
                workers: 2,
                conns: 3,
                depth,
                max_connections: 2,
                requests: 2,
            };
            let explored =
                explore(World::new(scope)).unwrap_or_else(|violation| panic!("{violation}"));
            println!(
                "dispatch model at queue depth {depth}: {} states explored to depth {}, \
                 {} finished drains, in {:?}",
                explored.states,
                explored.depth,
                explored.ends,
                started.elapsed()
            );
            flags |= explored.flags;
        }
        assert_eq!(flags, ALL, "every notable transition is reachable");
    }

    /// A splitmix64 stream: deterministic per seed, no dependencies.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// How likely each move is: the ordinary conversation dominates,
    /// the stop and the faults are rare.
    fn weight(step: Step) -> usize {
        match step {
            Step::Connect(_) | Step::Send(..) | Step::Pop(_) | Step::Answer(..) => 20,
            Step::Expire(..) | Step::Hangup(_) => 3,
            Step::Lose(_) | Step::Stop => 1,
        }
    }

    /// Thousands of seeded schedules at up to 4 workers, 8 connections,
    /// queue depth 4, `max_connections` 6 and 6 requests per client.
    #[test]
    fn seeded_random_schedules_keep_the_contract() {
        let mut flags = 0;
        for seed in 0..2_000u64 {
            let mut rng = Rng(seed);
            let mut world = World::new(Scope {
                workers: 1 + rng.below(4),
                conns: 1 + rng.below(8),
                depth: 1 + rng.below(4),
                max_connections: 1 + rng.below(6),
                requests: 1 + rng.below(6),
            });
            let mut trail = Vec::new();
            loop {
                let steps = world.steps();
                if steps.is_empty() {
                    world
                        .check_end()
                        .unwrap_or_else(|err| panic!("seed {seed}: {err} after {trail:?}"));
                    break;
                }
                let mut pick = rng.below(steps.iter().map(|&s| weight(s)).sum());
                let step = *steps
                    .iter()
                    .find(|&&s| {
                        let hit = pick < weight(s);
                        pick = pick.saturating_sub(weight(s));
                        hit
                    })
                    .expect("pick below the total weight");
                trail.push(step);
                world
                    .apply(step)
                    .unwrap_or_else(|err| panic!("seed {seed}: {err} after {trail:?}"));
                flags |= world.flags;
            }
        }
        assert_eq!(flags, ALL, "every notable transition is reachable");
    }
}
