//! Trading service (CosTrading-style).
//!
//! Exporters advertise *service offers* — an object reference plus a typed
//! property list — and importers query by service type, a constraint
//! expression (see [`crate::constraint`]) and a preference that orders the
//! matches. In InteGrade, each LRM's periodic status update is stored as an
//! offer of type `integrade::node`, and the GRM's scheduler is an importer:
//! application requirements become the constraint and preferences become the
//! preference expression — exactly the role the paper assigns to the JacORB
//! Trader in its prototype.
//!
//! # Query engine
//!
//! The trader indexes its offer store three ways so that the scheduler-side
//! query path scales past linear scans:
//!
//! * offers are bucketed by interned service type, so a query never touches
//!   offers of other types;
//! * every numeric (long/double/bool) property value is mirrored into a
//!   sorted secondary index keyed by `(service type, property slot)`,
//!   maintained incrementally on export/modify/withdraw;
//! * `(constraint, preference)` pairs compile once into a [`QueryPlan`] —
//!   property names resolved to dense slot ids, indexable conjuncts
//!   extracted — and are memoised in an LRU cache, so repeated queries
//!   (the GRM re-issuing an application's requirements every scheduling
//!   round) skip parsing and name resolution entirely.
//!
//! At query time the most selective indexed conjunct supplies a candidate
//! range scan (a superset of the matches — the full constraint is still
//! evaluated per candidate), and `max`/`min` preferences keep a bounded
//! binary heap of the best `max_offers` candidates instead of sorting every
//! match. Results are byte-identical to the retained reference
//! implementation ([`Trader::query_reference`]); `tests/trader_parity.rs`
//! holds the two paths together under randomised offers and constraints.

use crate::any::AnyValue;
use crate::cdr::{CdrDecode, CdrEncode, CdrReader};
use crate::constraint::{self, Expr, ParseError, SlotExpr, SlotId};
use crate::impl_cdr;
use crate::ior::Ior;
use crate::servant::{Servant, ServerException};
use integrade_simnet::idmap::{DenseId, IdMap};
use integrade_simnet::rng::DetRng;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::fmt;
use std::ops::Bound;
use std::sync::Arc;

mod reference;

/// Handle to an exported offer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct OfferId(pub u64);

impl DenseId for OfferId {
    fn index(self) -> usize {
        usize::try_from(self.0).unwrap_or(usize::MAX)
    }
}

impl fmt::Display for OfferId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "offer{}", self.0)
    }
}

impl_cdr!(struct OfferId(u64));

/// An advertised service.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceOffer {
    /// The offer's handle.
    pub id: OfferId,
    /// Service type name, e.g. `integrade::node`.
    pub service_type: String,
    /// Reference to the service's object.
    pub reference: Ior,
    /// Queryable properties.
    pub properties: BTreeMap<String, AnyValue>,
}

impl_cdr!(struct ServiceOffer { id, service_type, reference, properties });

/// How matched offers are ordered before truncation to `max_offers`.
#[derive(Debug, Clone, PartialEq)]
pub enum Preference {
    /// Highest value of the expression first; undefined sorts last.
    Max(Expr),
    /// Lowest value of the expression first; undefined sorts last.
    Min(Expr),
    /// Deterministically pseudo-random order.
    Random,
    /// Export order (oldest offer first).
    First,
}

impl Preference {
    /// Parses a preference string: `max <expr>`, `min <expr>`, `random`,
    /// `first`, or empty (= `first`).
    ///
    /// # Errors
    ///
    /// Fails when the keyword is unknown or the expression is malformed.
    pub fn parse(input: &str) -> Result<Preference, ParseError> {
        let trimmed = input.trim();
        if trimmed.is_empty() {
            return Ok(Preference::First);
        }
        let (word, rest) = match trimmed.split_once(char::is_whitespace) {
            Some((w, r)) => (w, r.trim()),
            None => (trimmed, ""),
        };
        match word.to_ascii_lowercase().as_str() {
            "first" if rest.is_empty() => Ok(Preference::First),
            "random" if rest.is_empty() => Ok(Preference::Random),
            "max" => Ok(Preference::Max(constraint::parse(rest)?)),
            "min" => Ok(Preference::Min(constraint::parse(rest)?)),
            _ => Err(ParseError {
                at: 0,
                message: format!("unknown preference '{word}'"),
            }),
        }
    }
}

/// Errors from trader operations.
#[derive(Debug, Clone, PartialEq)]
pub enum TraderError {
    /// The offer id is not registered.
    UnknownOffer(OfferId),
    /// The constraint string failed to parse.
    BadConstraint(ParseError),
    /// The preference string failed to parse.
    BadPreference(ParseError),
    /// A federation link with this name already exists.
    DuplicateLink(String),
    /// No federation link with this name exists.
    UnknownLink(String),
}

impl fmt::Display for TraderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraderError::UnknownOffer(id) => write!(f, "unknown {id}"),
            TraderError::BadConstraint(e) => write!(f, "bad constraint: {e}"),
            TraderError::BadPreference(e) => write!(f, "bad preference: {e}"),
            TraderError::DuplicateLink(name) => write!(f, "link '{name}' already exists"),
            TraderError::UnknownLink(name) => write!(f, "unknown link '{name}'"),
        }
    }
}

impl std::error::Error for TraderError {}

/// When a query spills over a federation link (the CORBA Trading Service's
/// link-follow rule, reduced to the two policies InteGrade needs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LinkFollowPolicy {
    /// Follow only when the local offer set cannot satisfy the query — the
    /// InteGrade federation default.
    #[default]
    IfNoLocal,
    /// Never follow; the link exists for topology bookkeeping only.
    Never,
}

/// A federation link to another trader, in the CORBA Trading Service sense:
/// this trader's queries may be forwarded to the linked trader when the
/// local offer set cannot satisfy them. The target is an opaque id — in
/// InteGrade, the `ClusterId` of the linked cluster — because the linked
/// trader lives in another cluster and is reached over the wide-area
/// network, not through a local reference.
#[derive(Debug, Clone, PartialEq)]
pub struct TraderLink {
    /// Link name, unique within the owning trader.
    pub name: String,
    /// Opaque target trader id (the linked cluster).
    pub target: u64,
    /// When queries follow this link.
    pub follow: LinkFollowPolicy,
    /// Queries forwarded over this link so far.
    pub followed: u64,
}

/// Interned service-type id, local to one trader.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct TypeId(u32);

/// String interner mapping names to dense ids; ids are never reused or
/// renumbered, so compiled plans stay valid for the trader's lifetime.
#[derive(Debug, Default)]
struct Interner {
    ids: BTreeMap<String, u32>,
    names: Vec<String>,
}

impl Interner {
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.ids.insert(name.to_owned(), id);
        self.names.push(name.to_owned());
        id
    }

    fn get(&self, name: &str) -> Option<u32> {
        self.ids.get(name).copied()
    }

    fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    fn len(&self) -> usize {
        self.names.len()
    }
}

/// Totally ordered index key for numeric property values.
///
/// Longs, doubles and bools (as 0/1) share one key space, matching the
/// numeric widening of the constraint language. `-0.0` is normalised to
/// `0.0` so that index order agrees with `partial_cmp` (which treats the
/// two as equal and falls through to the offer-id tiebreak).
#[derive(Debug, Clone, Copy)]
struct IndexKey(f64);

impl IndexKey {
    fn new(v: f64) -> IndexKey {
        IndexKey(if v == 0.0 { 0.0 } else { v })
    }

    fn of(value: &AnyValue) -> Option<IndexKey> {
        match value {
            AnyValue::Long(n) => Some(IndexKey::new(*n as f64)),
            AnyValue::Double(d) => Some(IndexKey::new(*d)),
            AnyValue::Bool(b) => Some(IndexKey::new(if *b { 1.0 } else { 0.0 })),
            AnyValue::Str(_) | AnyValue::Seq(_) => None,
        }
    }
}

impl PartialEq for IndexKey {
    fn eq(&self, other: &IndexKey) -> bool {
        self.0.total_cmp(&other.0) == Ordering::Equal
    }
}
impl Eq for IndexKey {}
impl PartialOrd for IndexKey {
    fn partial_cmp(&self, other: &IndexKey) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for IndexKey {
    fn cmp(&self, other: &IndexKey) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// One indexable conjunct of a constraint: offers of the queried type whose
/// value in `slot` lies outside `[lo, hi]` cannot match the constraint, so
/// the sorted index over that slot yields a candidate superset.
#[derive(Debug, Clone, Copy)]
struct RangeFilter {
    slot: SlotId,
    lo: Bound<IndexKey>,
    hi: Bound<IndexKey>,
}

/// A compiled `(constraint, preference)` pair.
///
/// Produced by [`Trader::prepare`]; holds the slot-resolved constraint and
/// preference expressions plus the indexable conjuncts extracted from the
/// constraint's top-level `and` spine. Plans are immutable and remain valid
/// for the trader's lifetime (slot ids are never renumbered).
#[derive(Debug)]
pub struct QueryPlan {
    constraint: SlotExpr,
    preference: PlanPreference,
    prefilters: Vec<RangeFilter>,
}

#[derive(Debug)]
enum PlanPreference {
    Max(SlotExpr),
    Min(SlotExpr),
    Random,
    First,
}

/// Extracts range prefilters from the top-level `and` spine.
///
/// Soundness: for an `and`-conjunct, any offer for which the conjunct is
/// false *or undefined* cannot match the whole constraint. A comparison
/// between a property and a numeric/bool literal is false-or-undefined for
/// every offer whose value in that slot is missing, non-numeric, or outside
/// the literal's range — exactly the offers a range scan over the numeric
/// index omits. Offers inside the range are only candidates: the full
/// constraint is re-evaluated for each.
fn collect_prefilters(expr: &SlotExpr, out: &mut Vec<RangeFilter>) {
    use constraint::CmpOp;
    match expr {
        SlotExpr::And(a, b) => {
            collect_prefilters(a, out);
            collect_prefilters(b, out);
        }
        // A bare property conjunct matches only `Bool(true)`, indexed at 1.
        SlotExpr::Prop(slot) => out.push(RangeFilter {
            slot: *slot,
            lo: Bound::Included(IndexKey::new(1.0)),
            hi: Bound::Included(IndexKey::new(1.0)),
        }),
        SlotExpr::Cmp(op, a, b) => {
            let (slot, lit, op) = match (&**a, &**b) {
                (SlotExpr::Prop(slot), SlotExpr::Lit(lit)) => (*slot, lit, *op),
                // `lit op prop` mirrors to `prop flip(op) lit`.
                (SlotExpr::Lit(lit), SlotExpr::Prop(slot)) => {
                    let flipped = match op {
                        CmpOp::Lt => CmpOp::Gt,
                        CmpOp::Le => CmpOp::Ge,
                        CmpOp::Gt => CmpOp::Lt,
                        CmpOp::Ge => CmpOp::Le,
                        CmpOp::Eq | CmpOp::Ne => *op,
                    };
                    (*slot, lit, flipped)
                }
                _ => return,
            };
            let Some(key) = IndexKey::of(lit) else {
                // String/sequence literals have no numeric-index image.
                return;
            };
            let (lo, hi) = match op {
                CmpOp::Eq => (Bound::Included(key), Bound::Included(key)),
                CmpOp::Lt => (Bound::Unbounded, Bound::Excluded(key)),
                CmpOp::Le => (Bound::Unbounded, Bound::Included(key)),
                CmpOp::Gt => (Bound::Excluded(key), Bound::Unbounded),
                CmpOp::Ge => (Bound::Included(key), Bound::Unbounded),
                // `!=` excludes a single point: not a contiguous range.
                CmpOp::Ne => return,
            };
            out.push(RangeFilter { slot, lo, hi });
        }
        _ => {}
    }
}

/// Sort rank of a matched offer under a `max`/`min` preference, ordered
/// ascending. Matches the reference comparator for all non-NaN keys:
/// defined keys first (ascending; negated for `max`), ties and undefined
/// keys by offer id. Offers with NaN preference keys have unspecified
/// relative order in both implementations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Rank {
    undefined: bool,
    key: IndexKey,
    id: OfferId,
}

const PLAN_CACHE_CAP: usize = 64;

#[derive(Debug)]
struct PlanEntry {
    plan: Arc<QueryPlan>,
    last_used: u64,
}

/// LRU cache of compiled plans, keyed by `(constraint, preference)` string
/// pair. Nested maps allow lookup from `&str` without building an owned
/// composite key on the hit path.
#[derive(Debug, Default)]
struct PlanCache {
    map: BTreeMap<String, BTreeMap<String, PlanEntry>>,
    len: usize,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl PlanCache {
    fn get(&mut self, constraint: &str, preference: &str) -> Option<Arc<QueryPlan>> {
        self.tick += 1;
        let entry = self.map.get_mut(constraint)?.get_mut(preference)?;
        entry.last_used = self.tick;
        self.hits += 1;
        Some(Arc::clone(&entry.plan))
    }

    fn insert(&mut self, constraint: &str, preference: &str, plan: Arc<QueryPlan>) {
        self.misses += 1;
        self.tick += 1;
        if self.len >= PLAN_CACHE_CAP {
            self.evict_lru();
        }
        let inserted = self
            .map
            .entry(constraint.to_owned())
            .or_default()
            .insert(
                preference.to_owned(),
                PlanEntry {
                    plan,
                    last_used: self.tick,
                },
            )
            .is_none();
        if inserted {
            self.len += 1;
        }
    }

    fn evict_lru(&mut self) {
        let victim = self
            .map
            .iter()
            .flat_map(|(c, prefs)| prefs.iter().map(move |(p, e)| (e.last_used, c, p)))
            .min_by_key(|(used, _, _)| *used)
            .map(|(_, c, p)| (c.clone(), p.clone()));
        if let Some((c, p)) = victim {
            if let Some(prefs) = self.map.get_mut(&c) {
                prefs.remove(&p);
                if prefs.is_empty() {
                    self.map.remove(&c);
                }
            }
            self.len -= 1;
        }
    }

    fn clear(&mut self) {
        self.map.clear();
        self.len = 0;
    }
}

/// One stored offer: the public `ServiceOffer` view plus the dense slot
/// table the query engine evaluates against.
#[derive(Debug)]
struct OfferRecord {
    offer: ServiceOffer,
    type_id: TypeId,
    slots: Vec<Option<AnyValue>>,
}

/// The trader: an indexed offer store with constraint-based query.
///
/// # Examples
///
/// ```
/// use integrade_orb::any::AnyValue;
/// use integrade_orb::ior::{Endpoint, Ior, ObjectKey};
/// use integrade_orb::trading::Trader;
/// use std::collections::BTreeMap;
///
/// let mut trader = Trader::new(42);
/// let ior = Ior::new("IDL:integrade/Lrm:1.0", Endpoint::new(1, 0), ObjectKey::new("lrm"));
/// let mut props = BTreeMap::new();
/// props.insert("cpu_mips".to_owned(), AnyValue::Long(800));
/// trader.export("integrade::node", &ior, props).unwrap();
///
/// let hits = trader.query("integrade::node", "cpu_mips >= 500", "first", 10).unwrap();
/// assert_eq!(hits.len(), 1);
/// ```
#[derive(Debug)]
pub struct Trader {
    offers: IdMap<OfferId, OfferRecord>,
    next_id: u64,
    rng: DetRng,
    queries: u64,
    type_names: Interner,
    prop_names: Interner,
    /// Offers bucketed by service type, in export (id) order.
    by_type: BTreeMap<TypeId, BTreeSet<OfferId>>,
    /// Sorted secondary index over every numeric property value.
    num_index: BTreeMap<(TypeId, SlotId), BTreeSet<(IndexKey, OfferId)>>,
    plans: PlanCache,
    /// Federation links, in insertion order (spillover follows them in this
    /// order, which keeps federated routing deterministic).
    links: Vec<TraderLink>,
}

impl Trader {
    /// Creates a trader; `seed` drives the `random` preference ordering.
    pub fn new(seed: u64) -> Self {
        Trader {
            offers: IdMap::new(),
            next_id: 1,
            rng: DetRng::with_stream(seed, 0x7261_6465 /* "rade" */),
            queries: 0,
            type_names: Interner::default(),
            prop_names: Interner::default(),
            by_type: BTreeMap::new(),
            num_index: BTreeMap::new(),
            plans: PlanCache::default(),
            links: Vec::new(),
        }
    }

    /// Adds a federation link to another trader. Links are followed in
    /// insertion order when a query spills over.
    ///
    /// # Errors
    ///
    /// Fails when a link with this name already exists.
    pub fn add_link(
        &mut self,
        name: &str,
        target: u64,
        follow: LinkFollowPolicy,
    ) -> Result<(), TraderError> {
        if self.links.iter().any(|l| l.name == name) {
            return Err(TraderError::DuplicateLink(name.to_owned()));
        }
        self.links.push(TraderLink {
            name: name.to_owned(),
            target,
            follow,
            followed: 0,
        });
        Ok(())
    }

    /// Removes a federation link by name, returning it.
    ///
    /// # Errors
    ///
    /// Fails when no link with this name exists.
    pub fn remove_link(&mut self, name: &str) -> Result<TraderLink, TraderError> {
        match self.links.iter().position(|l| l.name == name) {
            Some(i) => Ok(self.links.remove(i)),
            None => Err(TraderError::UnknownLink(name.to_owned())),
        }
    }

    /// The trader's federation links, in insertion (follow) order.
    pub fn links(&self) -> &[TraderLink] {
        &self.links
    }

    /// Records that a query was forwarded over the named link (bumped by
    /// the federation's spillover machinery when it follows the link).
    ///
    /// # Errors
    ///
    /// Fails when no link with this name exists.
    pub fn record_link_followed(&mut self, name: &str) -> Result<(), TraderError> {
        match self.links.iter_mut().find(|l| l.name == name) {
            Some(l) => {
                l.followed += 1;
                Ok(())
            }
            None => Err(TraderError::UnknownLink(name.to_owned())),
        }
    }

    /// Registers an offer; returns its id.
    ///
    /// # Errors
    ///
    /// Currently infallible, but returns `Result` for forward compatibility
    /// with service-type checking.
    pub fn export(
        &mut self,
        service_type: &str,
        reference: &Ior,
        properties: BTreeMap<String, AnyValue>,
    ) -> Result<OfferId, TraderError> {
        let id = OfferId(self.next_id);
        self.next_id += 1;
        let type_id = TypeId(self.type_names.intern(service_type));
        let mut slots = vec![None; self.prop_names.len()];
        for (name, value) in &properties {
            let slot = SlotId(self.prop_names.intern(name));
            if slot.0 as usize >= slots.len() {
                slots.resize(slot.0 as usize + 1, None);
            }
            if let Some(key) = IndexKey::of(value) {
                self.num_index
                    .entry((type_id, slot))
                    .or_default()
                    .insert((key, id));
            }
            slots[slot.0 as usize] = Some(value.clone());
        }
        self.by_type.entry(type_id).or_default().insert(id);
        self.offers.insert(
            id,
            OfferRecord {
                offer: ServiceOffer {
                    id,
                    service_type: service_type.to_owned(),
                    reference: reference.clone(),
                    properties,
                },
                type_id,
                slots,
            },
        );
        Ok(id)
    }

    /// Removes an offer.
    ///
    /// # Errors
    ///
    /// Fails if the offer is unknown.
    pub fn withdraw(&mut self, id: OfferId) -> Result<ServiceOffer, TraderError> {
        let rec = self
            .offers
            .remove(id)
            .ok_or(TraderError::UnknownOffer(id))?;
        self.unindex_slots(rec.type_id, id, &rec.slots);
        if let Some(bucket) = self.by_type.get_mut(&rec.type_id) {
            bucket.remove(&id);
        }
        Ok(rec.offer)
    }

    /// Replaces an offer's properties wholesale.
    ///
    /// For the periodic status refresh, prefer [`Trader::modify_values`],
    /// which updates values in place without rebuilding the property map.
    ///
    /// # Errors
    ///
    /// Fails if the offer is unknown.
    pub fn modify(
        &mut self,
        id: OfferId,
        properties: BTreeMap<String, AnyValue>,
    ) -> Result<(), TraderError> {
        // Take the record out so the interner and indexes can be borrowed
        // mutably while rebuilding it.
        let mut rec = self
            .offers
            .remove(id)
            .ok_or(TraderError::UnknownOffer(id))?;
        self.unindex_slots(rec.type_id, id, &rec.slots);
        rec.slots.clear();
        rec.slots.resize(self.prop_names.len(), None);
        for (name, value) in &properties {
            let slot = SlotId(self.prop_names.intern(name));
            if slot.0 as usize >= rec.slots.len() {
                rec.slots.resize(slot.0 as usize + 1, None);
            }
            if let Some(key) = IndexKey::of(value) {
                self.num_index
                    .entry((rec.type_id, slot))
                    .or_default()
                    .insert((key, id));
            }
            rec.slots[slot.0 as usize] = Some(value.clone());
        }
        rec.offer.properties = properties;
        self.offers.insert(id, rec);
        Ok(())
    }

    /// Updates individual property values in place — the allocation-free
    /// path for InteGrade's Information Update Protocol, which rewrites the
    /// same few numeric fields of every node offer each period.
    ///
    /// Slot ids must come from [`Trader::property_slot`] on this trader.
    /// Existing property keys are reused (no `String` allocation per
    /// update); secondary-index entries are touched only for values that
    /// actually changed.
    ///
    /// # Errors
    ///
    /// Fails if the offer is unknown.
    ///
    /// # Panics
    ///
    /// Panics if a slot id was not issued by this trader.
    pub fn modify_values<I>(&mut self, id: OfferId, updates: I) -> Result<(), TraderError>
    where
        I: IntoIterator<Item = (SlotId, AnyValue)>,
    {
        let Trader {
            offers,
            num_index,
            prop_names,
            ..
        } = self;
        let rec = offers.get_mut(id).ok_or(TraderError::UnknownOffer(id))?;
        for (slot, value) in updates {
            let si = slot.0 as usize;
            assert!(
                si < prop_names.len(),
                "slot {slot:?} was not issued by this trader"
            );
            if si >= rec.slots.len() {
                rec.slots.resize(si + 1, None);
            }
            if rec.slots[si].as_ref() == Some(&value) {
                continue;
            }
            if let Some(old_key) = rec.slots[si].as_ref().and_then(IndexKey::of) {
                if let Some(index) = num_index.get_mut(&(rec.type_id, slot)) {
                    index.remove(&(old_key, id));
                }
            }
            if let Some(key) = IndexKey::of(&value) {
                num_index
                    .entry((rec.type_id, slot))
                    .or_default()
                    .insert((key, id));
            }
            let name = prop_names.name(slot.0);
            match rec.offer.properties.get_mut(name) {
                Some(existing) => *existing = value.clone(),
                None => {
                    rec.offer.properties.insert(name.to_owned(), value.clone());
                }
            }
            rec.slots[si] = Some(value);
        }
        Ok(())
    }

    fn unindex_slots(&mut self, type_id: TypeId, id: OfferId, slots: &[Option<AnyValue>]) {
        for (si, value) in slots.iter().enumerate() {
            if let Some(key) = value.as_ref().and_then(IndexKey::of) {
                if let Some(index) = self.num_index.get_mut(&(type_id, SlotId(si as u32))) {
                    index.remove(&(key, id));
                }
            }
        }
    }

    /// Interns a property name, returning its stable slot id for use with
    /// [`Trader::modify_values`].
    pub fn property_slot(&mut self, name: &str) -> SlotId {
        SlotId(self.prop_names.intern(name))
    }

    /// Looks up one offer.
    pub fn offer(&self, id: OfferId) -> Option<&ServiceOffer> {
        self.offers.get(id).map(|rec| &rec.offer)
    }

    /// Number of live offers.
    pub fn offer_count(&self) -> usize {
        self.offers.len()
    }

    /// Number of queries served.
    pub fn query_count(&self) -> u64 {
        self.queries
    }

    /// `(hits, misses)` of the compiled-plan cache.
    pub fn plan_cache_stats(&self) -> (u64, u64) {
        (self.plans.hits, self.plans.misses)
    }

    /// Drops all cached query plans (benchmark knob for measuring the
    /// cold-plan path; plans are otherwise evicted only by LRU pressure).
    pub fn clear_plan_cache(&mut self) {
        self.plans.clear();
    }

    /// Compiles (or fetches from cache) the plan for a
    /// `(constraint, preference)` pair.
    ///
    /// # Errors
    ///
    /// Fails when the constraint or preference strings are malformed.
    pub fn prepare(
        &mut self,
        constraint_str: &str,
        preference_str: &str,
    ) -> Result<Arc<QueryPlan>, TraderError> {
        if let Some(plan) = self.plans.get(constraint_str, preference_str) {
            return Ok(plan);
        }
        let expr = constraint::parse(constraint_str).map_err(TraderError::BadConstraint)?;
        let preference = Preference::parse(preference_str).map_err(TraderError::BadPreference)?;
        let prop_names = &mut self.prop_names;
        let mut intern = |name: &str| SlotId(prop_names.intern(name));
        let constraint = constraint::compile(&expr, &mut intern);
        let preference = match &preference {
            Preference::Max(e) => PlanPreference::Max(constraint::compile(e, &mut intern)),
            Preference::Min(e) => PlanPreference::Min(constraint::compile(e, &mut intern)),
            Preference::Random => PlanPreference::Random,
            Preference::First => PlanPreference::First,
        };
        let mut prefilters = Vec::new();
        collect_prefilters(&constraint, &mut prefilters);
        let plan = Arc::new(QueryPlan {
            constraint,
            preference,
            prefilters,
        });
        self.plans
            .insert(constraint_str, preference_str, Arc::clone(&plan));
        Ok(plan)
    }

    /// Finds up to `max_offers` offers of `service_type` satisfying
    /// `constraint_str`, ordered by `preference_str`.
    ///
    /// Equivalent to [`Trader::prepare`] + [`Trader::query_plan`]; repeated
    /// queries with the same strings hit the plan cache.
    ///
    /// # Errors
    ///
    /// Fails when the constraint or preference strings are malformed. Offers
    /// whose properties make the constraint *undefined* silently do not
    /// match (trader semantics).
    pub fn query(
        &mut self,
        service_type: &str,
        constraint_str: &str,
        preference_str: &str,
        max_offers: usize,
    ) -> Result<Vec<ServiceOffer>, TraderError> {
        let plan = self.prepare(constraint_str, preference_str)?;
        Ok(self.query_plan(service_type, &plan, max_offers))
    }

    /// Runs a compiled plan against the current offer store.
    pub fn query_plan(
        &mut self,
        service_type: &str,
        plan: &QueryPlan,
        max_offers: usize,
    ) -> Vec<ServiceOffer> {
        self.queries += 1;
        // Fast path: `max p` / `min p` over a bare indexed numeric property
        // walks the secondary index in rank order and stops after
        // `max_offers` matches, instead of evaluating the whole bucket.
        if let PlanPreference::Max(SlotExpr::Prop(slot))
        | PlanPreference::Min(SlotExpr::Prop(slot)) = &plan.preference
        {
            let maximise = matches!(plan.preference, PlanPreference::Max(_));
            if let Some(hits) =
                self.top_k_ordered_scan(service_type, *slot, plan, maximise, max_offers)
            {
                return hits;
            }
        }
        let matched = self.matched_ids(service_type, plan, max_offers);
        match &plan.preference {
            PlanPreference::First => matched
                .into_iter()
                .take(max_offers)
                .map(|id| self.offers[id].offer.clone())
                .collect(),
            PlanPreference::Random => {
                // Shuffle the full match list (not just the returned
                // prefix) so the RNG stream stays in lockstep with the
                // reference implementation.
                let mut ids = matched;
                self.rng.shuffle(&mut ids);
                ids.into_iter()
                    .take(max_offers)
                    .map(|id| self.offers[id].offer.clone())
                    .collect()
            }
            PlanPreference::Max(expr) | PlanPreference::Min(expr) => {
                let maximise = matches!(plan.preference, PlanPreference::Max(_));
                self.top_k(&matched, expr, maximise, max_offers)
            }
        }
    }

    /// How many of the offers [`Trader::query`] would return under a
    /// `first` preference and no limit pass `keep` — without cloning any of
    /// them. Counts as one query and shares `query`'s plan cache, so the
    /// trader's statistics move exactly as for the equivalent `query`.
    ///
    /// # Errors
    ///
    /// Fails when the constraint string is malformed.
    pub fn count_matching(
        &mut self,
        service_type: &str,
        constraint_str: &str,
        mut keep: impl FnMut(&ServiceOffer) -> bool,
    ) -> Result<usize, TraderError> {
        let plan = self.prepare(constraint_str, "first")?;
        self.queries += 1;
        let matched = self.matched_ids(service_type, &plan, usize::MAX);
        Ok(matched
            .into_iter()
            .filter(|&id| keep(&self.offers[id].offer))
            .count())
    }

    /// Candidate generation + constraint evaluation, in ascending offer-id
    /// order (the order every preference builds on).
    fn matched_ids(&self, service_type: &str, plan: &QueryPlan, max_offers: usize) -> Vec<OfferId> {
        let Some(type_id) = self.type_names.get(service_type).map(TypeId) else {
            return Vec::new();
        };
        let Some(bucket) = self.by_type.get(&type_id) else {
            return Vec::new();
        };

        // Pick the most selective indexed conjunct by counting each range
        // with early abort at the best size seen so far; the full bucket
        // scan is the baseline to beat.
        let mut candidates: Option<Vec<OfferId>> = None;
        if !plan.prefilters.is_empty() {
            let mut best: Option<&RangeFilter> = None;
            let mut best_count = bucket.len();
            for filter in &plan.prefilters {
                let count = match self.num_index.get(&(type_id, filter.slot)) {
                    Some(index) => index.range(range_bounds(filter)).take(best_count).count(),
                    // No offer of this type has a numeric value in the
                    // slot, so the conjunct is false/undefined for all.
                    None => 0,
                };
                if count < best_count || best.is_none() && count == 0 {
                    best_count = count;
                    best = Some(filter);
                    if count == 0 {
                        break;
                    }
                }
            }
            if let Some(filter) = best {
                let mut ids: Vec<OfferId> = self
                    .num_index
                    .get(&(type_id, filter.slot))
                    .map(|index| {
                        index
                            .range(range_bounds(filter))
                            .map(|(_, id)| *id)
                            .collect()
                    })
                    .unwrap_or_default();
                ids.sort_unstable();
                candidates = Some(ids);
            }
        }

        // `first` can stop at max_offers matches because candidates arrive
        // in id order; the other preferences need the full match set.
        let stop_at = match plan.preference {
            PlanPreference::First => max_offers,
            _ => usize::MAX,
        };
        let mut matched = Vec::new();
        let mut push = |id: OfferId, rec: &OfferRecord| {
            if constraint::matches_slots(&plan.constraint, &rec.slots) {
                matched.push(id);
            }
            matched.len() >= stop_at
        };
        match candidates {
            Some(ids) => {
                for id in ids {
                    if push(id, &self.offers[id]) {
                        break;
                    }
                }
            }
            None => {
                for &id in bucket {
                    if push(id, &self.offers[id]) {
                        break;
                    }
                }
            }
        }
        matched
    }

    /// Index-ordered top-k for `max p` / `min p` over a bare property:
    /// walks `num_index[(type, slot)]` one key group at a time from the
    /// best rank towards the worst, evaluating the constraint per entry.
    /// Within a key group the set is ordered by ascending offer id — the
    /// reference tie-break — so the scan stops at the k-th match without
    /// touching the rest of the tie group. (A fleet of identical machines
    /// is one giant tie group; walking it whole made every query O(n).)
    /// Offers *not* in the index have an undefined preference key
    /// (`as_f64` is `None` for missing, string and sequence values) and
    /// rank after every defined key, so they are only consulted when the
    /// index runs dry.
    ///
    /// Returns `None` to fall back to the general path when the rank order
    /// of the index cannot be trusted: a `Bool` value indexes as 0/1 but
    /// ranks as undefined under `max`/`min`, exactly like the reference.
    fn top_k_ordered_scan(
        &self,
        service_type: &str,
        slot: SlotId,
        plan: &QueryPlan,
        maximise: bool,
        k: usize,
    ) -> Option<Vec<ServiceOffer>> {
        if k == 0 {
            return Some(Vec::new());
        }
        let type_id = TypeId(self.type_names.get(service_type)?);
        let index = self.num_index.get(&(type_id, slot))?;

        let mut hits: Vec<OfferId> = Vec::new();
        let mut group: Option<IndexKey> = None;
        'groups: while hits.len() < k {
            // The next key group in rank order. Offer ids are sequential
            // counters, so id 0 / id MAX make safe exclusive sentinels.
            let next = match (maximise, group) {
                (true, None) => index.iter().next_back(),
                (true, Some(g)) => index.range(..(g, OfferId(0))).next_back(),
                (false, None) => index.iter().next(),
                (false, Some(g)) => index.range((g, OfferId(u64::MAX))..).next(),
            };
            let Some(&(gkey, _)) = next else { break };
            group = Some(gkey);
            for &(_, id) in index.range((gkey, OfferId(0))..=(gkey, OfferId(u64::MAX))) {
                let rec = &self.offers[id];
                if matches!(
                    rec.slots.get(slot.0 as usize),
                    Some(Some(AnyValue::Bool(_)))
                ) {
                    return None;
                }
                if constraint::matches_slots(&plan.constraint, &rec.slots) {
                    hits.push(id);
                    if hits.len() == k {
                        break 'groups;
                    }
                }
            }
        }

        // Group-descending (for max) then id-ascending is already the
        // reference rank order — no sort needed.
        let mut out: Vec<ServiceOffer> = hits
            .into_iter()
            .map(|id| self.offers[id].offer.clone())
            .collect();

        if out.len() < k {
            // Defined keys are exhausted; fill the tail with undefined-rank
            // matches (bucket offers with no numeric value in the slot),
            // which the reference orders by ascending id after all defined
            // keys — the bucket's natural order.
            let bucket = self.by_type.get(&type_id)?;
            for &id in bucket {
                if out.len() >= k {
                    break;
                }
                let rec = &self.offers[id];
                let indexed = rec
                    .slots
                    .get(slot.0 as usize)
                    .and_then(Option::as_ref)
                    .and_then(IndexKey::of)
                    .is_some();
                if !indexed && constraint::matches_slots(&plan.constraint, &rec.slots) {
                    out.push(rec.offer.clone());
                }
            }
        }
        Some(out)
    }

    /// Selects the best `k` offers under a `max`/`min` preference with a
    /// bounded binary heap: O(n log k) instead of sorting all n matches.
    fn top_k(
        &self,
        matched: &[OfferId],
        expr: &SlotExpr,
        maximise: bool,
        k: usize,
    ) -> Vec<ServiceOffer> {
        if k == 0 {
            return Vec::new();
        }
        // Max-heap of the k smallest ranks: the root is the current worst.
        let mut heap: BinaryHeap<Rank> = BinaryHeap::with_capacity(k + 1);
        for &id in matched {
            let rec = &self.offers[id];
            let key = constraint::eval_slots(expr, &rec.slots)
                .ok()
                .and_then(|v| v.as_f64());
            let rank = Rank {
                undefined: key.is_none(),
                key: IndexKey::new(match key {
                    // Ascending rank order must put the best key first, so
                    // `max` negates (exact order reversal under total_cmp).
                    Some(v) if maximise => -v,
                    Some(v) => v,
                    None => 0.0,
                }),
                id,
            };
            if heap.len() < k {
                heap.push(rank);
            } else if rank < *heap.peek().expect("heap is non-empty when len == k") {
                heap.pop();
                heap.push(rank);
            }
        }
        let mut ranks = heap.into_vec();
        ranks.sort_unstable();
        ranks
            .into_iter()
            .map(|rank| self.offers[rank.id].offer.clone())
            .collect()
    }
}

/// An entry in a `(service type, slot)` secondary index.
type IndexEntry = (IndexKey, OfferId);

fn range_bounds(filter: &RangeFilter) -> (Bound<IndexEntry>, Bound<IndexEntry>) {
    let lo = match filter.lo {
        Bound::Included(k) => Bound::Included((k, OfferId(0))),
        Bound::Excluded(k) => Bound::Excluded((k, OfferId(u64::MAX))),
        Bound::Unbounded => Bound::Unbounded,
    };
    let hi = match filter.hi {
        Bound::Included(k) => Bound::Included((k, OfferId(u64::MAX))),
        Bound::Excluded(k) => Bound::Excluded((k, OfferId(0))),
        Bound::Unbounded => Bound::Unbounded,
    };
    (lo, hi)
}

/// Remote-object wrapper around [`Trader`].
///
/// Operations (all CDR):
/// * `export(service_type: String, reference: Ior, properties: Map) -> OfferId`
/// * `withdraw(id: OfferId) -> ()`
/// * `modify(id: OfferId, properties: Map) -> ()`
/// * `query(service_type: String, constraint: String, preference: String, max: u32) -> Vec<ServiceOffer>`
#[derive(Debug)]
pub struct TraderServant {
    trader: Trader,
}

impl TraderServant {
    /// Wraps a fresh trader seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        TraderServant {
            trader: Trader::new(seed),
        }
    }

    /// Direct access for collocated callers.
    pub fn trader(&self) -> &Trader {
        &self.trader
    }

    /// Direct mutable access for collocated callers.
    pub fn trader_mut(&mut self) -> &mut Trader {
        &mut self.trader
    }
}

impl From<TraderError> for ServerException {
    fn from(e: TraderError) -> Self {
        ServerException::User(e.to_string())
    }
}

impl Servant for TraderServant {
    fn type_id(&self) -> &'static str {
        "IDL:omg.org/CosTrading/Lookup:1.0"
    }

    fn dispatch(
        &mut self,
        operation: &str,
        args: &mut CdrReader<'_>,
    ) -> Result<Vec<u8>, ServerException> {
        match operation {
            "export" => {
                let (service_type, reference, properties) =
                    <(String, Ior, BTreeMap<String, AnyValue>)>::decode(args)?;
                let id = self.trader.export(&service_type, &reference, properties)?;
                Ok(id.to_cdr_bytes())
            }
            "withdraw" => {
                let id = OfferId::decode(args)?;
                self.trader.withdraw(id)?;
                Ok(Vec::new())
            }
            "modify" => {
                let (id, properties) = <(OfferId, BTreeMap<String, AnyValue>)>::decode(args)?;
                self.trader.modify(id, properties)?;
                Ok(Vec::new())
            }
            "query" => {
                let (service_type, constraint_str, preference_str, max) =
                    <(String, String, String, u32)>::decode(args)?;
                let offers = self.trader.query(
                    &service_type,
                    &constraint_str,
                    &preference_str,
                    max as usize,
                )?;
                Ok(offers.to_cdr_bytes())
            }
            other => Err(ServerException::BadOperation(other.to_owned())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ior::{Endpoint, ObjectKey};
    use crate::transport::LoopbackBus;

    fn node_ior(n: u32) -> Ior {
        Ior::new(
            "IDL:integrade/Lrm:1.0",
            Endpoint::new(n, 0),
            ObjectKey::new(format!("lrm{n}")),
        )
    }

    fn node_props(mips: i64, mem: i64, idle: bool) -> BTreeMap<String, AnyValue> {
        [
            ("cpu_mips".to_owned(), AnyValue::Long(mips)),
            ("mem_mb".to_owned(), AnyValue::Long(mem)),
            ("idle".to_owned(), AnyValue::Bool(idle)),
        ]
        .into_iter()
        .collect()
    }

    fn seeded_trader() -> Trader {
        let mut t = Trader::new(7);
        t.export("integrade::node", &node_ior(1), node_props(300, 32, true))
            .unwrap();
        t.export("integrade::node", &node_ior(2), node_props(800, 64, true))
            .unwrap();
        t.export("integrade::node", &node_ior(3), node_props(1200, 16, false))
            .unwrap();
        t.export("other::service", &node_ior(4), node_props(9999, 999, true))
            .unwrap();
        t
    }

    #[test]
    fn federation_links_follow_insertion_order() {
        let mut t = seeded_trader();
        t.add_link("child-2", 2, LinkFollowPolicy::IfNoLocal)
            .unwrap();
        t.add_link("parent-0", 0, LinkFollowPolicy::IfNoLocal)
            .unwrap();
        t.add_link("mirror", 9, LinkFollowPolicy::Never).unwrap();
        let order: Vec<u64> = t.links().iter().map(|l| l.target).collect();
        assert_eq!(order, vec![2, 0, 9]);
        assert_eq!(
            t.add_link("child-2", 5, LinkFollowPolicy::IfNoLocal),
            Err(TraderError::DuplicateLink("child-2".to_owned()))
        );
    }

    #[test]
    fn link_follow_stats_accumulate_and_remove_works() {
        let mut t = seeded_trader();
        t.add_link("up", 0, LinkFollowPolicy::IfNoLocal).unwrap();
        t.record_link_followed("up").unwrap();
        t.record_link_followed("up").unwrap();
        assert_eq!(t.links()[0].followed, 2);
        assert_eq!(
            t.record_link_followed("down"),
            Err(TraderError::UnknownLink("down".to_owned()))
        );
        let removed = t.remove_link("up").unwrap();
        assert_eq!(removed.followed, 2);
        assert!(t.links().is_empty());
        assert_eq!(
            t.remove_link("up"),
            Err(TraderError::UnknownLink("up".to_owned()))
        );
    }

    #[test]
    fn query_filters_by_type_and_constraint() {
        let mut t = seeded_trader();
        let hits = t
            .query("integrade::node", "cpu_mips >= 500", "first", 10)
            .unwrap();
        let ids: Vec<u64> = hits.iter().map(|o| o.id.0).collect();
        assert_eq!(ids, vec![2, 3]);
    }

    #[test]
    fn count_matching_counts_what_query_returns() {
        let mut counted = seeded_trader();
        let mut queried = seeded_trader();
        for constraint in ["cpu_mips >= 500", "idle", "cpu_mips > 5000"] {
            let n = counted
                .count_matching("integrade::node", constraint, |o| o.id != OfferId(2))
                .unwrap();
            let hits = queried
                .query("integrade::node", constraint, "first", usize::MAX)
                .unwrap();
            assert_eq!(n, hits.iter().filter(|o| o.id != OfferId(2)).count());
        }
        assert_eq!(counted.query_count(), queried.query_count());
        assert_eq!(counted.plan_cache_stats(), queried.plan_cache_stats());
        assert!(matches!(
            counted.count_matching("integrade::node", "cpu_mips >=", |_| true),
            Err(TraderError::BadConstraint(_))
        ));
    }

    #[test]
    fn preference_max_orders_descending() {
        let mut t = seeded_trader();
        let hits = t
            .query("integrade::node", "cpu_mips >= 0", "max cpu_mips", 10)
            .unwrap();
        let mips: Vec<i64> = hits
            .iter()
            .map(|o| o.properties["cpu_mips"].as_f64().unwrap() as i64)
            .collect();
        assert_eq!(mips, vec![1200, 800, 300]);
    }

    #[test]
    fn preference_min_orders_ascending() {
        let mut t = seeded_trader();
        let hits = t
            .query("integrade::node", "idle == true", "min cpu_mips", 10)
            .unwrap();
        let ids: Vec<u64> = hits.iter().map(|o| o.id.0).collect();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn preference_random_is_deterministic_per_seed() {
        let mut a = seeded_trader();
        let mut b = seeded_trader();
        let ha = a
            .query("integrade::node", "cpu_mips >= 0", "random", 10)
            .unwrap();
        let hb = b
            .query("integrade::node", "cpu_mips >= 0", "random", 10)
            .unwrap();
        assert_eq!(
            ha.iter().map(|o| o.id).collect::<Vec<_>>(),
            hb.iter().map(|o| o.id).collect::<Vec<_>>()
        );
        assert_eq!(ha.len(), 3);
    }

    #[test]
    fn max_offers_truncates() {
        let mut t = seeded_trader();
        let hits = t
            .query("integrade::node", "cpu_mips >= 0", "max cpu_mips", 1)
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id.0, 3);
    }

    #[test]
    fn undefined_preference_key_sorts_last() {
        let mut t = seeded_trader();
        t.export("integrade::node", &node_ior(5), BTreeMap::new())
            .unwrap();
        let hits = t
            .query("integrade::node", "true", "max cpu_mips", 10)
            .unwrap();
        assert_eq!(hits.last().unwrap().id.0, 5);
    }

    #[test]
    fn modify_updates_visible_properties() {
        let mut t = Trader::new(1);
        let id = t
            .export("integrade::node", &node_ior(1), node_props(100, 8, true))
            .unwrap();
        assert!(t
            .query("integrade::node", "cpu_mips >= 500", "first", 10)
            .unwrap()
            .is_empty());
        t.modify(id, node_props(900, 8, true)).unwrap();
        assert_eq!(
            t.query("integrade::node", "cpu_mips >= 500", "first", 10)
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn modify_values_updates_in_place() {
        let mut t = Trader::new(1);
        let id = t
            .export("integrade::node", &node_ior(1), node_props(100, 8, true))
            .unwrap();
        let mips = t.property_slot("cpu_mips");
        let idle = t.property_slot("idle");
        t.modify_values(
            id,
            [(mips, AnyValue::Long(900)), (idle, AnyValue::Bool(false))],
        )
        .unwrap();
        // Both the dense slots (query path) and the BTreeMap view agree.
        let hits = t
            .query("integrade::node", "cpu_mips >= 500", "first", 10)
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].properties["cpu_mips"], AnyValue::Long(900));
        assert_eq!(hits[0].properties["idle"], AnyValue::Bool(false));
        assert!(t
            .query("integrade::node", "idle == true", "first", 10)
            .unwrap()
            .is_empty());
        assert!(matches!(
            t.modify_values(OfferId(99), [(mips, AnyValue::Long(1))]),
            Err(TraderError::UnknownOffer(OfferId(99)))
        ));
    }

    #[test]
    fn modify_values_can_introduce_new_property() {
        let mut t = Trader::new(1);
        let id = t
            .export("integrade::node", &node_ior(1), node_props(100, 8, true))
            .unwrap();
        let gpu = t.property_slot("gpu_count");
        t.modify_values(id, [(gpu, AnyValue::Long(2))]).unwrap();
        let hits = t
            .query("integrade::node", "gpu_count >= 1", "first", 10)
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(
            t.offer(id).unwrap().properties["gpu_count"],
            AnyValue::Long(2)
        );
    }

    #[test]
    fn withdraw_removes_offer() {
        let mut t = seeded_trader();
        let id = OfferId(2);
        t.withdraw(id).unwrap();
        assert_eq!(t.withdraw(id).unwrap_err(), TraderError::UnknownOffer(id));
        assert_eq!(t.offer_count(), 3);
        let hits = t
            .query("integrade::node", "cpu_mips >= 500", "first", 10)
            .unwrap();
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn bad_constraint_and_preference_are_errors() {
        let mut t = seeded_trader();
        assert!(matches!(
            t.query("integrade::node", "cpu_mips >=", "first", 10),
            Err(TraderError::BadConstraint(_))
        ));
        assert!(matches!(
            t.query("integrade::node", "true", "best cpu", 10),
            Err(TraderError::BadPreference(_))
        ));
    }

    #[test]
    fn preference_parse_variants() {
        assert_eq!(Preference::parse("").unwrap(), Preference::First);
        assert_eq!(Preference::parse("first").unwrap(), Preference::First);
        assert_eq!(Preference::parse("random").unwrap(), Preference::Random);
        assert!(matches!(
            Preference::parse("max cpu_mips").unwrap(),
            Preference::Max(_)
        ));
        assert!(matches!(
            Preference::parse("min 2 * load").unwrap(),
            Preference::Min(_)
        ));
        assert!(Preference::parse("max").is_err());
        assert!(Preference::parse("random stuff").is_err());
    }

    #[test]
    fn plan_cache_hits_repeated_queries() {
        let mut t = seeded_trader();
        assert_eq!(t.plan_cache_stats(), (0, 0));
        for _ in 0..5 {
            t.query("integrade::node", "cpu_mips >= 500", "max cpu_mips", 10)
                .unwrap();
        }
        assert_eq!(t.plan_cache_stats(), (4, 1));
        t.clear_plan_cache();
        t.query("integrade::node", "cpu_mips >= 500", "max cpu_mips", 10)
            .unwrap();
        assert_eq!(t.plan_cache_stats(), (4, 2));
    }

    #[test]
    fn prepared_plan_queries_directly() {
        let mut t = seeded_trader();
        let plan = t.prepare("cpu_mips >= 500", "min cpu_mips").unwrap();
        let hits = t.query_plan("integrade::node", &plan, 10);
        let ids: Vec<u64> = hits.iter().map(|o| o.id.0).collect();
        assert_eq!(ids, vec![2, 3]);
        // The plan survives store mutations.
        t.export("integrade::node", &node_ior(6), node_props(600, 8, true))
            .unwrap();
        let hits = t.query_plan("integrade::node", &plan, 10);
        let ids: Vec<u64> = hits.iter().map(|o| o.id.0).collect();
        assert_eq!(ids, vec![5, 2, 3]);
    }

    #[test]
    fn indexed_and_scan_paths_agree() {
        // Same store twice: one answers through the indexes (or, for the
        // disjunction, which yields no prefilter, the bucket scan), the
        // other through the reference linear scan.
        let mut indexed = Trader::new(11);
        let mut reference = Trader::new(11);
        for i in 0..100u32 {
            let props = node_props(
                300 + (i as i64 * 13) % 1700,
                (i as i64 * 7) % 512,
                i % 5 != 0,
            );
            indexed
                .export("integrade::node", &node_ior(i), props.clone())
                .unwrap();
            reference
                .export("integrade::node", &node_ior(i), props)
                .unwrap();
        }
        for (constraint, pref) in [
            ("cpu_mips >= 500 and mem_mb >= 16", "max cpu_mips"),
            ("idle and cpu_mips < 900", "min mem_mb"),
            ("mem_mb == 0 or cpu_mips > 1500", "first"),
            ("cpu_mips >= 0", "random"),
        ] {
            let a = indexed
                .query("integrade::node", constraint, pref, 7)
                .unwrap();
            let b = reference
                .query_reference("integrade::node", constraint, pref, 7)
                .unwrap();
            assert_eq!(a, b, "constraint {constraint:?} pref {pref:?}");
        }
    }

    #[test]
    fn query_matches_reference_implementation() {
        let mut indexed = seeded_trader();
        let mut reference = seeded_trader();
        for (constraint, pref) in [
            ("cpu_mips >= 500", "first"),
            ("cpu_mips >= 0", "max cpu_mips"),
            ("idle == true", "min cpu_mips"),
            ("cpu_mips >= 0", "random"),
            ("mem_mb > 10 and cpu_mips > 100", "max cpu_mips + mem_mb"),
        ] {
            let a = indexed
                .query("integrade::node", constraint, pref, 10)
                .unwrap();
            let b = reference
                .query_reference("integrade::node", constraint, pref, 10)
                .unwrap();
            assert_eq!(a, b, "constraint {constraint:?} pref {pref:?}");
        }
    }

    #[test]
    fn servant_full_cycle_over_bus() {
        let mut bus = LoopbackBus::new();
        let ep = bus.add_orb(Endpoint::new(0, 1));
        let trader_ref = bus
            .activate(
                ep,
                ObjectKey::new("Trader"),
                Box::new(TraderServant::new(3)),
            )
            .unwrap();

        // Export two node offers remotely.
        let out = bus
            .invoke(&trader_ref, "export", |w| {
                (
                    "integrade::node".to_owned(),
                    node_ior(1),
                    node_props(700, 32, true),
                )
                    .encode(w)
            })
            .unwrap();
        let id1 = OfferId::from_cdr_bytes(&out).unwrap();
        bus.invoke(&trader_ref, "export", |w| {
            (
                "integrade::node".to_owned(),
                node_ior(2),
                node_props(200, 32, true),
            )
                .encode(w)
        })
        .unwrap();

        // Query remotely.
        let out = bus
            .invoke(&trader_ref, "query", |w| {
                (
                    "integrade::node".to_owned(),
                    "cpu_mips >= 500".to_owned(),
                    "max cpu_mips".to_owned(),
                    10u32,
                )
                    .encode(w)
            })
            .unwrap();
        let offers = Vec::<ServiceOffer>::from_cdr_bytes(&out).unwrap();
        assert_eq!(offers.len(), 1);
        assert_eq!(offers[0].id, id1);

        // Withdraw remotely; second withdraw is a user exception.
        bus.invoke(&trader_ref, "withdraw", |w| id1.encode(w))
            .unwrap();
        let err = bus
            .invoke(&trader_ref, "withdraw", |w| id1.encode(w))
            .unwrap_err();
        assert!(err.to_string().contains("unknown"), "{err}");
    }

    #[test]
    fn offer_cdr_round_trip() {
        crate::cdr::assert_wire_sound(&ServiceOffer {
            id: OfferId(9),
            service_type: "integrade::node".into(),
            reference: node_ior(9),
            properties: node_props(500, 16, true),
        });
    }
}
