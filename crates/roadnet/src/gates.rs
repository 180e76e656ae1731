//! Gated sweeps: one-to-many queries some of whose targets are wanted only
//! when one of a few *trigger* nodes lies within a radius of the source.
//!
//! The FoodGraph prices an offer for a vehicle only when the vehicle can
//! reach one of the offer's restaurants within the first-mile bound (§V-B):
//! beyond it the pair is an Ω edge, whatever its stops cost. A [`GatedTargets`]
//! says exactly that to the oracle — the committed stops a tour can drive
//! to first are *required*, and each offer is a *gate* with the bound as
//! radius and its restaurants as triggers and members (its customers too,
//! for a vehicle standing on a stop) — so the sweep from the vehicle stops
//! once every required target and every member of a gate still in play is
//! settled, instead of running out to the farthest restaurant of an offer
//! it will drop.
//! [`ShortestPathEngine::gated_travel_times`](crate::ShortestPathEngine::gated_travel_times)
//! runs one; `index.rs` ("Gated sweeps") says how the memo and the search
//! answer it.
//!
//! A gate *opens* when a trigger lies at most `radius` from the source and
//! *closes* otherwise. A member is answered when it is required or a member
//! of an open gate, and left unanswered when only closed gates asked for it.
//! Which gates open and what the answered targets read is a function of the
//! distances alone, so a cold engine, a warm one and the plain sweep report
//! the same.

use crate::dijkstra::SearchSpace;
use crate::ids::NodeId;
use crate::timeofday::Duration;

/// The targets of a gated sweep, as the caller builds them: required nodes,
/// and gates of triggers and members.
#[derive(Clone, Debug, Default)]
pub struct GatedTargets {
    required: Vec<NodeId>,
    gates: Vec<GateSpec>,
    /// Every gate's members, gate after gate, each gate's triggers first.
    members: Vec<NodeId>,
}

/// Where one gate's members end in [`GatedTargets::members`], where its
/// triggers (a prefix of them) end, and its radius in seconds.
#[derive(Clone, Copy, Debug)]
struct GateSpec {
    radius: f64,
    triggers_end: u32,
    members_end: u32,
}

impl GatedTargets {
    /// No targets yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// No targets yet, with room for `gates` gates listing `members`
    /// members between them.
    pub fn with_capacity(gates: usize, members: usize) -> Self {
        GatedTargets {
            required: Vec::new(),
            gates: Vec::with_capacity(gates),
            members: Vec::with_capacity(members),
        }
    }

    /// Asks for `nodes` whatever the gates decide.
    pub fn require(&mut self, nodes: impl IntoIterator<Item = NodeId>) {
        self.required.extend(nodes);
    }

    /// Adds a gate of radius `radius`: `triggers` decide it, and they and
    /// `others` are its members. Returns its index in
    /// [`GatedAnswers::opened`]. A gate with no trigger never opens.
    pub fn gate(
        &mut self,
        radius: Duration,
        triggers: impl IntoIterator<Item = NodeId>,
        others: impl IntoIterator<Item = NodeId>,
    ) -> usize {
        self.members.extend(triggers);
        let triggers_end = self.members.len() as u32;
        self.members.extend(others);
        let members_end = self.members.len() as u32;
        self.gates.push(GateSpec { radius: radius.as_secs_f64(), triggers_end, members_end });
        self.gates.len() - 1
    }

    /// Every node asked for, required or gated, sorted and distinct — the
    /// list the sweep runs on — and where each of `members` lies in it.
    /// One sort of the entries does both.
    pub(crate) fn layout(&self) -> (Vec<NodeId>, Layout) {
        let members = self.members.len();
        // `node << 32 | entry`: sorting the keys sorts by node.
        let mut entries: Vec<u64> = (self.members.iter().chain(&self.required).zip(0u64..))
            .map(|(node, entry)| u64::from(node.0) << 32 | entry)
            .collect();
        entries.sort_unstable();
        let mut nodes: Vec<NodeId> = Vec::with_capacity(entries.len());
        let mut layout =
            Layout { member_at: vec![0; members], pins: Vec::with_capacity(entries.len()) };
        for key in entries {
            let (node, entry) = (NodeId((key >> 32) as u32), key as u32);
            if nodes.last() != Some(&node) {
                nodes.push(node);
                layout.pins.push(0);
            }
            let at = nodes.len() - 1;
            layout.pins[at] += 1;
            if let Some(member) = layout.member_at.get_mut(entry as usize) {
                *member = at as u32;
            }
        }
        (nodes, layout)
    }

    /// The index range of gate `g`'s members in `members`; its triggers are
    /// the first `triggers_end - start` of them.
    fn span(&self, g: usize) -> (usize, usize, usize) {
        let start = g.checked_sub(1).map_or(0, |before| self.gates[before].members_end as usize);
        let gate = self.gates[g];
        (start, gate.triggers_end as usize, gate.members_end as usize)
    }
}

/// What a gated sweep answered.
#[derive(Clone, Debug, PartialEq)]
pub struct GatedAnswers {
    /// Per gate, in the order [`GatedTargets::gate`] added them: whether one
    /// of its triggers lies within its radius of the source.
    pub opened: Vec<bool>,
    /// The answered targets — required, or a member of an open gate —
    /// sorted and distinct.
    pub targets: Vec<NodeId>,
    /// Their travel times from the source, like `targets`; `None` for an
    /// unreachable target.
    pub travel_times: Vec<Option<Duration>>,
}

/// Where [`GatedTargets::layout`] put each member, and the initial
/// [`Gates::pins`].
pub(crate) struct Layout {
    member_at: Vec<u32>,
    pins: Vec<u32>,
}

/// What a sweep knows of one target: `None` not yet, `Some(None)` that it is
/// unreachable, `Some(Some(d))` its travel time.
pub(crate) type Answer = Option<Option<Duration>>;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum State {
    Undecided,
    Open,
    Closed,
}

/// One gated sweep in flight: flat arrays over the sorted, distinct target
/// list the sweep runs on (`nodes`), which the memo pass, the search kernel
/// and the read-back index alike.
///
/// A gate is decided by what is known of its triggers — open on one at most
/// `radius` away, closed when all are known to lie beyond it — and, during a
/// search, when the search pops its first label beyond the radius: by then
/// every node within the radius is settled, so a gate with no trigger
/// settled closes. A member stays wanted while a gate of its is open or
/// undecided, which is what keeps the search no wider than the plain one.
pub(crate) struct Gates<'a> {
    asked: &'a GatedTargets,
    nodes: &'a [NodeId],
    /// Position in `nodes` of each of `asked.members`.
    member_at: Vec<u32>,
    /// Per target: how many gates that are not closed list it, plus how
    /// many times it is required. Zero: nobody wants it answered any more.
    pins: Vec<u32>,
    /// Per target not answered: a travel time it is known not to beat.
    /// Empty until the memo holds such a floor for one.
    floor: Vec<f64>,
    state: Vec<State>,
    /// Gates a search closed before it reached any of their triggers.
    pub(crate) closed_early: u64,
}

impl<'a> Gates<'a> {
    /// A sweep of `asked` over `nodes`, as [`GatedTargets::layout`] laid
    /// them out.
    pub(crate) fn new(asked: &'a GatedTargets, nodes: &'a [NodeId], layout: Layout) -> Self {
        let Layout { member_at, pins } = layout;
        Gates {
            asked,
            nodes,
            member_at,
            pins,
            floor: Vec::new(),
            state: vec![State::Undecided; asked.gates.len()],
            closed_early: 0,
        }
    }

    /// Whether target `i` still has to be answered.
    #[inline]
    pub(crate) fn wanted(&self, i: usize) -> bool {
        self.pins[i] > 0
    }

    /// Notes that target `i`, not answered, is at least `secs` away.
    pub(crate) fn floor(&mut self, i: usize, secs: f64) {
        self.floor.resize(self.nodes.len(), 0.0);
        self.floor[i] = secs;
    }

    /// Per target, whether it is a trigger of some gate: the targets whose
    /// floors [`Self::decide`] reads.
    pub(crate) fn triggers(&self) -> Vec<bool> {
        let mut triggers = vec![false; self.nodes.len()];
        for g in 0..self.state.len() {
            let (start, triggers_end, _) = self.asked.span(g);
            for &trigger in &self.member_at[start..triggers_end] {
                triggers[trigger as usize] = true;
            }
        }
        triggers
    }

    /// Decides every undecided gate that `known` (one [`Answer`] per target)
    /// and the floors decide: open on a trigger within the radius, closed
    /// when every trigger is known to lie beyond it (or to be unreachable).
    pub(crate) fn decide(&mut self, known: &[Answer]) {
        for g in 0..self.state.len() {
            if self.state[g] != State::Undecided {
                continue;
            }
            let (start, triggers_end, _) = self.asked.span(g);
            let radius = self.asked.gates[g].radius;
            let mut all_known = true;
            for &trigger in &self.member_at[start..triggers_end] {
                match known[trigger as usize] {
                    Some(Some(secs)) if secs.as_secs_f64() <= radius => {
                        self.state[g] = State::Open;
                        break;
                    }
                    Some(_) => {}
                    None => {
                        all_known &= self.floor.get(trigger as usize).is_some_and(|&f| f > radius)
                    }
                }
            }
            if self.state[g] == State::Undecided && all_known {
                self.close(g, |_| {});
            }
        }
    }

    /// The smallest radius of a gate still undecided; infinite when none
    /// is. A search pops labels up to it without asking the gates anything,
    /// so this scan runs once per distinct radius it passes — once, when
    /// every gate has the first-mile bound for radius.
    pub(crate) fn horizon(&self) -> f64 {
        let undecided = self.asked.gates.iter().zip(&self.state);
        let undecided = undecided.filter(|(_, &state)| state == State::Undecided);
        undecided.map(|(gate, _)| gate.radius).fold(f64::INFINITY, f64::min)
    }

    /// A search in `space` has just popped `label`: every undecided gate of
    /// a smaller radius is decided — open if it settled a trigger at a label
    /// within the radius, closed if not — and a member only closed gates
    /// wanted loses its target mark. Returns how many marked targets that
    /// unmarked.
    ///
    /// A fresh search has settled nothing beyond the radius by then, so for
    /// it "settled" alone would do; a search resumed from a tree row may
    /// have been seeded with nodes far beyond it, so the label is checked.
    pub(crate) fn pass(&mut self, label: f64, space: &mut SearchSpace) -> usize {
        let mut unmarked = 0;
        for g in 0..self.state.len() {
            let radius = self.asked.gates[g].radius;
            if self.state[g] != State::Undecided || radius >= label {
                continue;
            }
            let (start, triggers_end, _) = self.asked.span(g);
            let within = |&t: &u32| {
                let i = self.nodes[t as usize].index();
                space.is_settled(i) && space.dist(i) <= radius
            };
            if self.member_at[start..triggers_end].iter().any(within) {
                self.state[g] = State::Open;
            } else {
                self.closed_early += 1;
                self.close(g, |node| unmarked += usize::from(space.take_target(node.index())));
            }
        }
        unmarked
    }

    /// Closes gate `g`, handing `dropped` each target it was the last
    /// reason to answer.
    fn close(&mut self, g: usize, mut dropped: impl FnMut(NodeId)) {
        self.state[g] = State::Closed;
        let (start, _, end) = self.asked.span(g);
        for &member in &self.member_at[start..end] {
            let pins = &mut self.pins[member as usize];
            *pins -= 1;
            if *pins == 0 {
                dropped(self.nodes[member as usize]);
            }
        }
    }

    /// The sweep's result, from `known` — one [`Answer`] per target, every
    /// wanted one answered. That decides every gate: an undecided gate's
    /// unknown triggers are wanted, so known by now.
    pub(crate) fn answers(mut self, known: &[Answer]) -> GatedAnswers {
        self.decide(known);
        debug_assert!(!self.state.contains(&State::Undecided));
        let mut answers = GatedAnswers {
            opened: self.state.iter().map(|&state| state == State::Open).collect(),
            targets: Vec::with_capacity(self.nodes.len()),
            travel_times: Vec::with_capacity(self.nodes.len()),
        };
        for ((&node, answer), &pins) in self.nodes.iter().zip(known).zip(&self.pins) {
            if pins > 0 {
                answers.targets.push(node);
                answers.travel_times.push(answer.expect("every wanted target is answered"));
            }
        }
        answers
    }
}
