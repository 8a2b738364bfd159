//! Bearer-key authentication: mapping `Authorization: Bearer <key>` to a
//! tenant principal.
//!
//! With `--auth on`, tenant identity stops being the self-declared `corpus`
//! field: admission is billed to the tenant the presented key belongs to, a
//! request naming some *other* tenant's corpus is a `403`, and the admin
//! endpoints (corpus lifecycle, tenant retuning, manifest reload) require a
//! key from the manifest's `admin_key_hashes` set — no key at all is a
//! `401`. The table is swapped atomically on manifest reload and edited in
//! place by `PUT`/`DELETE /v1/corpora/:name`, so key changes take effect
//! live.
//!
//! Keys are stored **hashed at rest**: every table entry is a
//! [`StoredKey`] — a salt plus the salted SHA-256 of the key — so neither
//! the in-memory table nor a manifest ever holds the secret itself.
//! `rpg hash-key` mints the `"<salt-hex>:<digest-hex>"` strings a manifest
//! or `PUT` body lists in `key_hashes`/`admin_key_hashes`. Lookups compare
//! digests in constant time.

use rpg_service::{Manifest, StoredKey};

/// Who a request is, after checking its bearer key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Principal {
    /// No key, or a key the table does not know.
    Anonymous,
    /// A key belonging to this tenant.
    Tenant(String),
    /// A key from the admin set.
    Admin,
}

/// The key → principal mapping of a running server; all keys hashed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuthTable {
    /// Stored key plus its owning tenant.
    tenant_keys: Vec<(StoredKey, String)>,
    admins: Vec<StoredKey>,
}

impl AuthTable {
    /// An empty table: every request resolves to [`Principal::Anonymous`].
    pub fn new() -> AuthTable {
        AuthTable::default()
    }

    /// The table a validated manifest describes: each tenant's
    /// `key_hashes` plus the manifest's `admin_key_hashes`. Validation
    /// already guarantees every hash parses and no key is claimed twice.
    pub fn from_manifest(manifest: &Manifest) -> AuthTable {
        let mut table = AuthTable {
            tenant_keys: Vec::new(),
            admins: manifest.admin_stored_keys(),
        };
        for (name, config) in manifest.tenants_sorted() {
            table.grant_tenant(name, config.stored_keys());
        }
        table
    }

    /// Replaces one tenant's key set (also used by
    /// `PUT /v1/corpora/:name`). A key already held by the admin set or
    /// another tenant is skipped rather than stolen.
    pub fn grant_tenant(&mut self, tenant: &str, keys: Vec<StoredKey>) {
        self.revoke_tenant(tenant);
        for stored in keys {
            if self.encoded_owner(&stored).is_none() {
                self.tenant_keys.push((stored, tenant.to_string()));
            }
        }
    }

    /// Drops every key belonging to one tenant (used by
    /// `DELETE /v1/corpora/:name`).
    pub fn revoke_tenant(&mut self, tenant: &str) {
        self.tenant_keys.retain(|(_, owner)| owner != tenant);
    }

    /// Resolves a bearer token to its principal. Every stored key is
    /// checked (no early exit), so response timing does not reveal which
    /// entry — if any — a guessed key was close to.
    pub fn principal(&self, bearer: Option<&str>) -> Principal {
        let Some(key) = bearer else {
            return Principal::Anonymous;
        };
        let mut resolved = Principal::Anonymous;
        for stored in &self.admins {
            if stored.matches(key) {
                resolved = Principal::Admin;
            }
        }
        if resolved == Principal::Anonymous {
            for (stored, tenant) in &self.tenant_keys {
                if stored.matches(key) && resolved == Principal::Anonymous {
                    resolved = Principal::Tenant(tenant.clone());
                }
            }
        }
        resolved
    }

    /// Who owns a stored key identical to `candidate` (exact salt+digest
    /// match — used to keep `PUT` from re-claiming another tenant's
    /// published hash).
    pub fn encoded_owner(&self, candidate: &StoredKey) -> Option<Principal> {
        if self.admins.iter().any(|stored| stored == candidate) {
            return Some(Principal::Admin);
        }
        self.tenant_keys
            .iter()
            .find(|(stored, _)| stored == candidate)
            .map(|(_, tenant)| Principal::Tenant(tenant.clone()))
    }
}

/// Extracts the token of an `Authorization: Bearer <token>` header value
/// (scheme case-insensitive, surrounding whitespace ignored). Any other
/// scheme — or a bare token — is `None`.
pub fn bearer_token(authorization: Option<&str>) -> Option<&str> {
    let value = authorization?.trim();
    let (scheme, token) = value.split_once(char::is_whitespace)?;
    if !scheme.eq_ignore_ascii_case("bearer") {
        return None;
    }
    let token = token.trim();
    (!token.is_empty()).then_some(token)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stored form of `key` under a fixed salt.
    fn hashed(key: &str) -> String {
        StoredKey::with_salt(key, b"salt").encode()
    }

    fn demo_table() -> AuthTable {
        let manifest = Manifest::from_json(&format!(
            r#"{{
                "admin_key_hashes": [{:?}],
                "tenants": {{
                    "alpha": {{"corpus": {{"seed": 1}}, "key_hashes": [{:?}, {:?}]}},
                    "beta": {{"corpus": {{"seed": 2}}, "key_hashes": [{:?}]}}
                }}
            }}"#,
            hashed("root"),
            hashed("ka1"),
            hashed("ka2"),
            hashed("kb"),
        ))
        .unwrap();
        AuthTable::from_manifest(&manifest)
    }

    #[test]
    fn keys_resolve_to_their_principals() {
        let table = demo_table();
        assert_eq!(table.principal(Some("root")), Principal::Admin);
        assert_eq!(
            table.principal(Some("ka1")),
            Principal::Tenant("alpha".to_string())
        );
        assert_eq!(
            table.principal(Some("ka2")),
            Principal::Tenant("alpha".to_string())
        );
        assert_eq!(
            table.principal(Some("kb")),
            Principal::Tenant("beta".to_string())
        );
        assert_eq!(table.principal(Some("nope")), Principal::Anonymous);
        assert_eq!(table.principal(None), Principal::Anonymous);
    }

    #[test]
    fn the_table_never_stores_plaintext() {
        let table = demo_table();
        let dump = format!("{table:?}");
        for secret in ["root", "ka1", "ka2", "kb"] {
            assert!(
                !dump.contains(&format!("\"{secret}\"")),
                "plaintext {secret:?} leaked into the table: {dump}"
            );
        }
    }

    #[test]
    fn hashed_manifest_keys_authenticate_without_the_manifest_knowing_them() {
        let stored = StoredKey::with_salt("s3cret", b"pepper");
        let manifest = Manifest::from_json(&format!(
            r#"{{"tenants": {{"alpha": {{"corpus": {{"seed": 1}},
                "key_hashes": ["{}"]}}}}}}"#,
            stored.encode()
        ))
        .unwrap();
        let table = AuthTable::from_manifest(&manifest);
        assert_eq!(
            table.principal(Some("s3cret")),
            Principal::Tenant("alpha".to_string())
        );
        assert_eq!(table.principal(Some("s3cret ")), Principal::Anonymous);
        assert_eq!(
            table.principal(Some(&stored.encode())),
            Principal::Anonymous,
            "presenting the hash itself must not authenticate"
        );
    }

    #[test]
    fn stored_keys_round_trip_and_reject_malformed_text() {
        let stored = StoredKey::with_salt("key", &[1, 2, 3, 4]);
        let parsed = StoredKey::parse(&stored.encode()).unwrap();
        assert_eq!(parsed, stored);
        assert!(parsed.matches("key"));
        assert!(!parsed.matches("Key"));
        for bad in ["", "nocolon", ":abcd", "zz:abcd", "ab:zz", "ab:abcd"] {
            assert!(StoredKey::parse(bad).is_none(), "accepted {bad:?}");
        }
        // Same key, different salt → different digest and encoding.
        let other = StoredKey::with_salt("key", &[9, 9, 9, 9]);
        assert_ne!(other.encode(), stored.encode());
        assert!(other.matches("key"));
    }

    #[test]
    fn grant_and_revoke_edit_one_tenant() {
        let mut table = demo_table();
        table.grant_tenant("alpha", vec![StoredKey::with_salt("fresh", b"salt")]);
        assert_eq!(table.principal(Some("ka1")), Principal::Anonymous);
        assert_eq!(
            table.principal(Some("fresh")),
            Principal::Tenant("alpha".to_string())
        );
        assert_eq!(
            table.principal(Some("kb")),
            Principal::Tenant("beta".to_string()),
            "other tenants' keys are untouched"
        );
        table.revoke_tenant("beta");
        assert_eq!(table.principal(Some("kb")), Principal::Anonymous);
        assert_eq!(table.principal(Some("root")), Principal::Admin);
    }

    #[test]
    fn grants_never_steal_claimed_keys() {
        let mut table = demo_table();
        let claimed = ["root", "kb"].map(|key| StoredKey::with_salt(key, b"salt"));
        table.grant_tenant("thief", claimed.to_vec());
        assert_eq!(table.principal(Some("root")), Principal::Admin);
        assert_eq!(
            table.principal(Some("kb")),
            Principal::Tenant("beta".to_string())
        );
        assert_eq!(table, demo_table(), "nothing was granted to the thief");
    }

    #[test]
    fn bearer_tokens_parse_strictly() {
        assert_eq!(bearer_token(Some("Bearer abc")), Some("abc"));
        assert_eq!(bearer_token(Some("bearer  abc ")), Some("abc"));
        assert_eq!(bearer_token(Some("BEARER x")), Some("x"));
        assert_eq!(bearer_token(Some("Basic abc")), None);
        assert_eq!(bearer_token(Some("Bearer ")), None);
        assert_eq!(bearer_token(Some("abc")), None);
        assert_eq!(bearer_token(None), None);
    }
}
