//! Naming service (CosNaming-style).
//!
//! A hierarchical name → object-reference directory. InteGrade components
//! use it to find the GRM, GUPA and sibling cluster managers without baking
//! endpoints into code. Names are slash-separated paths (`"integrade/
//! cluster0/grm"`); intermediate contexts are created implicitly on bind,
//! matching how the paper's prototype used the JacORB naming service.
//!
//! [`NamingService`] is the plain-Rust implementation; [`NamingServant`]
//! exposes it as a remote object (operations `bind`, `rebind`, `resolve`,
//! `unbind`, `list`).

use crate::cdr::{CdrDecode, CdrEncode, CdrReader};
use crate::ior::Ior;
use crate::servant::{Servant, ServerException};
use std::collections::BTreeMap;
use std::fmt;

/// Errors from naming operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NamingError {
    /// No binding exists at the path.
    NotFound(String),
    /// `bind` found an existing binding (use `rebind` to replace).
    AlreadyBound(String),
    /// The path was empty or contained an empty component.
    InvalidName(String),
}

impl fmt::Display for NamingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NamingError::NotFound(n) => write!(f, "name '{n}' is not bound"),
            NamingError::AlreadyBound(n) => write!(f, "name '{n}' is already bound"),
            NamingError::InvalidName(n) => write!(f, "invalid name '{n}'"),
        }
    }
}

impl std::error::Error for NamingError {}

fn validate(name: &str) -> Result<(), NamingError> {
    if name.is_empty() || name.split('/').any(|c| c.is_empty()) {
        return Err(NamingError::InvalidName(name.to_owned()));
    }
    Ok(())
}

/// Hierarchical name directory.
///
/// # Examples
///
/// ```
/// use integrade_orb::ior::{Endpoint, Ior, ObjectKey};
/// use integrade_orb::naming::NamingService;
///
/// let mut ns = NamingService::new();
/// let ior = Ior::new("IDL:integrade/Grm:1.0", Endpoint::new(0, 1), ObjectKey::new("grm"));
/// ns.bind("integrade/cluster0/grm", ior.clone()).unwrap();
/// assert_eq!(ns.resolve("integrade/cluster0/grm").unwrap(), ior);
/// assert_eq!(ns.list("integrade/cluster0"), vec!["grm".to_owned()]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct NamingService {
    bindings: BTreeMap<String, Ior>,
}

impl NamingService {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds `name` to `ior`.
    ///
    /// # Errors
    ///
    /// Fails if the name is invalid or already bound.
    pub fn bind(&mut self, name: &str, ior: Ior) -> Result<(), NamingError> {
        validate(name)?;
        if self.bindings.contains_key(name) {
            return Err(NamingError::AlreadyBound(name.to_owned()));
        }
        self.bindings.insert(name.to_owned(), ior);
        Ok(())
    }

    /// Binds `name` to `ior`, replacing any existing binding. Returns the
    /// previous reference, if any.
    ///
    /// # Errors
    ///
    /// Fails only on an invalid name.
    pub fn rebind(&mut self, name: &str, ior: Ior) -> Result<Option<Ior>, NamingError> {
        validate(name)?;
        Ok(self.bindings.insert(name.to_owned(), ior))
    }

    /// Looks up `name`.
    ///
    /// # Errors
    ///
    /// Fails if the name is invalid or unbound.
    pub fn resolve(&self, name: &str) -> Result<Ior, NamingError> {
        validate(name)?;
        self.bindings
            .get(name)
            .cloned()
            .ok_or_else(|| NamingError::NotFound(name.to_owned()))
    }

    /// Removes the binding at `name`, returning it.
    ///
    /// # Errors
    ///
    /// Fails if the name is invalid or unbound.
    pub fn unbind(&mut self, name: &str) -> Result<Ior, NamingError> {
        validate(name)?;
        self.bindings
            .remove(name)
            .ok_or_else(|| NamingError::NotFound(name.to_owned()))
    }

    /// Lists the immediate children of a context path (deduplicated,
    /// sorted). An empty `context` lists the roots.
    pub fn list(&self, context: &str) -> Vec<String> {
        let prefix = if context.is_empty() {
            String::new()
        } else {
            format!("{context}/")
        };
        let mut out: Vec<String> = Vec::new();
        for key in self.bindings.keys() {
            if let Some(rest) = key.strip_prefix(&prefix) {
                let child = rest.split('/').next().unwrap_or(rest).to_owned();
                if !child.is_empty() && out.last() != Some(&child) {
                    out.push(child);
                }
            }
        }
        out.dedup();
        out
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    /// True when no bindings exist.
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }
}

/// Remote-object wrapper around [`NamingService`].
///
/// Operations (all CDR):
/// * `bind(name: String, ior: Ior) -> ()`
/// * `rebind(name: String, ior: Ior) -> Option<Ior>`
/// * `resolve(name: String) -> Ior`
/// * `unbind(name: String) -> Ior`
/// * `list(context: String) -> Vec<String>`
#[derive(Debug, Default)]
pub struct NamingServant {
    service: NamingService,
}

impl NamingServant {
    /// Wraps a fresh directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Direct access to the directory (collocated use).
    pub fn service(&self) -> &NamingService {
        &self.service
    }
}

impl From<NamingError> for ServerException {
    fn from(e: NamingError) -> Self {
        ServerException::User(e.to_string())
    }
}

impl Servant for NamingServant {
    fn type_id(&self) -> &'static str {
        "IDL:omg.org/CosNaming/NamingContext:1.0"
    }

    fn dispatch(
        &mut self,
        operation: &str,
        args: &mut CdrReader<'_>,
    ) -> Result<Vec<u8>, ServerException> {
        match operation {
            "bind" => {
                let (name, ior) = <(String, Ior)>::decode(args)?;
                self.service.bind(&name, ior)?;
                Ok(Vec::new())
            }
            "rebind" => {
                let (name, ior) = <(String, Ior)>::decode(args)?;
                let prev = self.service.rebind(&name, ior)?;
                Ok(prev.to_cdr_bytes())
            }
            "resolve" => {
                let name = String::decode(args)?;
                Ok(self.service.resolve(&name)?.to_cdr_bytes())
            }
            "unbind" => {
                let name = String::decode(args)?;
                Ok(self.service.unbind(&name)?.to_cdr_bytes())
            }
            "list" => {
                let context = String::decode(args)?;
                Ok(self.service.list(&context).to_cdr_bytes())
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

    fn ior(n: u32) -> Ior {
        Ior::new(
            "IDL:test/T:1.0",
            Endpoint::new(n, 0),
            ObjectKey::new(format!("o{n}")),
        )
    }

    #[test]
    fn bind_resolve_unbind_cycle() {
        let mut ns = NamingService::new();
        ns.bind("a/b/c", ior(1)).unwrap();
        assert_eq!(ns.resolve("a/b/c").unwrap(), ior(1));
        assert_eq!(ns.unbind("a/b/c").unwrap(), ior(1));
        assert_eq!(
            ns.resolve("a/b/c").unwrap_err(),
            NamingError::NotFound("a/b/c".into())
        );
    }

    #[test]
    fn bind_refuses_duplicates_rebind_replaces() {
        let mut ns = NamingService::new();
        ns.bind("x", ior(1)).unwrap();
        assert_eq!(
            ns.bind("x", ior(2)).unwrap_err(),
            NamingError::AlreadyBound("x".into())
        );
        assert_eq!(ns.rebind("x", ior(2)).unwrap(), Some(ior(1)));
        assert_eq!(ns.resolve("x").unwrap(), ior(2));
    }

    #[test]
    fn invalid_names_rejected() {
        let mut ns = NamingService::new();
        for bad in ["", "a//b", "/a", "a/"] {
            assert!(
                matches!(ns.bind(bad, ior(1)), Err(NamingError::InvalidName(_))),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn list_returns_immediate_children() {
        let mut ns = NamingService::new();
        ns.bind("grid/c0/grm", ior(1)).unwrap();
        ns.bind("grid/c0/gupa", ior(2)).unwrap();
        ns.bind("grid/c1/grm", ior(3)).unwrap();
        ns.bind("top", ior(4)).unwrap();
        assert_eq!(ns.list("grid"), vec!["c0", "c1"]);
        assert_eq!(ns.list("grid/c0"), vec!["grm", "gupa"]);
        assert_eq!(ns.list(""), vec!["grid", "top"]);
        assert!(ns.list("nope").is_empty());
    }

    #[test]
    fn servant_round_trip_over_bus() {
        let mut bus = LoopbackBus::new();
        let ep = bus.add_orb(Endpoint::new(0, 1));
        let ns_ref = bus
            .activate(
                ep,
                ObjectKey::new("NameService"),
                Box::new(NamingServant::new()),
            )
            .unwrap();

        bus.invoke(&ns_ref, "bind", |w| {
            ("svc/grm".to_owned(), ior(5)).encode(w)
        })
        .unwrap();
        let out = bus
            .invoke(&ns_ref, "resolve", |w| "svc/grm".encode(w))
            .unwrap();
        assert_eq!(Ior::from_cdr_bytes(&out).unwrap(), ior(5));

        let out = bus.invoke(&ns_ref, "list", |w| "svc".encode(w)).unwrap();
        assert_eq!(Vec::<String>::from_cdr_bytes(&out).unwrap(), vec!["grm"]);

        // Unbinding twice surfaces the user exception remotely.
        bus.invoke(&ns_ref, "unbind", |w| "svc/grm".encode(w))
            .unwrap();
        let err = bus
            .invoke(&ns_ref, "unbind", |w| "svc/grm".encode(w))
            .unwrap_err();
        assert!(err.to_string().contains("not bound"), "{err}");
    }

    #[test]
    fn counts_track_bindings() {
        let mut ns = NamingService::new();
        assert!(ns.is_empty());
        ns.bind("a", ior(1)).unwrap();
        ns.bind("b", ior(2)).unwrap();
        assert_eq!(ns.len(), 2);
    }
}
