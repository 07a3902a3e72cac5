//! The database facade: catalog + tables + encrypted-aggregation configuration.
//!
//! A [`Database`] instance plays the role of the paper's untrusted Postgres
//! server: it stores (encrypted or plaintext) tables, executes SQL, reports
//! EXPLAIN-style cost estimates, and exposes the cryptographic UDFs
//! (`paillier_sum`, `group_concat`, `search_match`) that MONOMI installs on the
//! server. It holds no decryption keys — for encrypted databases the only
//! key-derived material it sees is the *public* Paillier modulus needed to
//! multiply ciphertexts.

use crate::exec::{execute_query, ExecStats, ResultSet};
use crate::ops::ExecOptions;
use crate::schema::{Catalog, ColumnDef, TableSchema};
use crate::stats::{collect_stats, Estimator, QueryEstimate, TableStats};
use crate::storage::{StagedLoad, Table};
use crate::value::Value;
use crate::EngineError;
use monomi_math::{BigUint, MontgomeryCtx};
use monomi_sql::ast::Query;
use monomi_sql::parse_query;
use monomi_store::Store;
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::Arc;

/// Environment knob selecting whether [`Database::new`] gives its tables a
/// segment store: `memory` (default, none) or `disk` (a fresh temporary
/// store, removed when the database is dropped). Sampled once per process.
pub const STORAGE_ENV: &str = "MONOMI_STORAGE";

fn env_default_is_disk() -> bool {
    static MODE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *MODE.get_or_init(|| {
        std::env::var(STORAGE_ENV)
            .map(|v| v.eq_ignore_ascii_case("disk"))
            .unwrap_or(false)
    })
}

/// A temporary directory nobody else owns, for `MONOMI_STORAGE=disk`
/// databases created without an explicit path.
fn fresh_temp_dir() -> PathBuf {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    loop {
        let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("monomi-db-{}-{seq}", std::process::id()));
        match std::fs::create_dir_all(dir.parent().expect("temp dir has a parent"))
            .and_then(|()| std::fs::create_dir(&dir))
        {
            Ok(()) => return dir,
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
            Err(e) => panic!("cannot create temporary store directory: {e}"),
        }
    }
}

/// Server-side Paillier evaluation state: the public ciphertext modulus n²
/// together with the Montgomery context the `paillier_sum` UDF multiplies
/// ciphertexts in. Built once when the modulus is registered and shared
/// (via `Arc`) with every aggregation state, so per-query and per-group code
/// never re-derives Montgomery constants or re-parses the modulus.
#[derive(Clone, Debug)]
pub struct PaillierServerCtx {
    n_squared: BigUint,
    ctx: MontgomeryCtx,
    ciphertext_bytes: usize,
}

impl PaillierServerCtx {
    /// The public ciphertext modulus n².
    pub fn n_squared(&self) -> &BigUint {
        &self.n_squared
    }

    /// The shared Montgomery context modulo n².
    pub fn ctx(&self) -> &MontgomeryCtx {
        &self.ctx
    }

    /// Fixed serialized ciphertext width in bytes.
    pub fn ciphertext_bytes(&self) -> usize {
        self.ciphertext_bytes
    }
}

/// An analytical database. Its tables commit their rows to a persistent
/// columnar segment store ([`monomi_store::Store`]: zone-map pruning, a
/// crash-safe catalog, a byte-budgeted segment cache) when the database has
/// one, and keep them in memory when it does not; query results are
/// byte-identical either way, at every thread count.
pub struct Database {
    catalog: Catalog,
    /// Tables by lowercased name. A BTreeMap, not a HashMap: `persist` walks
    /// this map, so its order determines segment file names and manifest
    /// version numbers — iteration must be deterministic for two identically
    /// built databases to produce byte-identical on-disk artifacts.
    tables: BTreeMap<String, Table>,
    paillier: Option<Arc<PaillierServerCtx>>,
    stats_cache: RwLock<Option<HashMap<String, TableStats>>>,
    /// The segment store new tables commit their rows to, if any.
    store: Option<Arc<Store>>,
    /// A temporary store directory this database owns (removed on drop).
    temp_dir: Option<PathBuf>,
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for Database {
    fn drop(&mut self) {
        if let Some(dir) = self.temp_dir.take() {
            // Drop table handles (and their Arc<Store>) before deleting.
            self.tables.clear();
            self.store = None;
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

impl Database {
    /// Creates an empty database as `MONOMI_STORAGE` selects: without a store
    /// by default, or over a fresh temporary segment store under
    /// `MONOMI_STORAGE=disk` (removed when the database is dropped). For an
    /// explicit choice use [`in_memory`](Self::in_memory) or
    /// [`open`](Self::open).
    pub fn new() -> Self {
        if env_default_is_disk() {
            let dir = fresh_temp_dir();
            let store = Store::open(&dir).expect("temporary segment store opens");
            let mut db = Self::in_memory();
            db.store = Some(store);
            db.temp_dir = Some(dir);
            db
        } else {
            Self::in_memory()
        }
    }

    /// Creates an empty database without a segment store — every table stays
    /// in memory — regardless of the environment.
    pub fn in_memory() -> Self {
        Database {
            catalog: Catalog::new(),
            tables: BTreeMap::new(),
            paillier: None,
            stats_cache: RwLock::new(None),
            store: None,
            temp_dir: None,
        }
    }

    /// Opens (creating if necessary) a disk-backed database at `path`. An
    /// existing store directory is loaded through its crash-safe manifest:
    /// every committed table — schema, segments, zone maps — is visible
    /// exactly as of the last successful commit.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, EngineError> {
        let store = Store::open(path.into()).map_err(|e| EngineError::new(e.to_string()))?;
        Ok(Self::with_store(store))
    }

    /// Builds a disk-backed database over an already opened store (used by
    /// tests and benchmarks that tune [`monomi_store::StoreOptions`] — e.g. a
    /// tiny segment size to force multi-segment tables, or a small cache).
    pub fn with_store(store: Arc<Store>) -> Self {
        let mut db = Self::in_memory();
        for (name, columns) in store.catalog() {
            let schema = TableSchema::new(
                name.clone(),
                columns
                    .into_iter()
                    .map(|(cname, ty)| ColumnDef::new(cname, ty))
                    .collect(),
            );
            db.catalog.register(schema.clone());
            db.tables
                .insert(name, Table::with_store(schema, Some(Arc::clone(&store))));
        }
        db.store = Some(store);
        db
    }

    /// True when tables live in the persistent segment store.
    pub fn is_disk_backed(&self) -> bool {
        self.store.is_some()
    }

    /// The underlying segment store of a disk-backed database (exposed for
    /// benchmarks and tests: cache statistics, stored-byte accounting).
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.store.as_ref()
    }

    /// Flushes every table's unflushed tail into committed segments (no-op
    /// without a store). After this returns, [`Database::open`] on the
    /// same path sees every row.
    ///
    /// Tables flush in name order (the map is a `BTreeMap`), so two databases
    /// built by the same sequence of operations produce byte-identical
    /// manifests and segment file names.
    pub fn persist(&mut self) -> Result<(), EngineError> {
        for table in self.tables.values_mut() {
            table.flush().map_err(EngineError::new)?;
        }
        Ok(())
    }

    /// Creates a table from a schema (replacing any existing table of that
    /// name). With a store, the schema is committed to the store's catalog
    /// before the table becomes usable.
    ///
    /// # Panics
    ///
    /// Panics if that catalog commit fails (e.g. the
    /// store directory became unwritable or the disk filled up) — the
    /// infallible signature is part of the original engine API; storage
    /// errors after setup surface as `Result`s (`insert`, `bulk_load`,
    /// `persist`, query execution).
    pub fn create_table(&mut self, schema: TableSchema) {
        self.create_table_with(schema, Vec::new());
    }

    /// [`create_table`](Self::create_table) with a list of columns opted out
    /// of secondary-index builds. An index file materializes a column's
    /// ciphertext equality (DET) or ordering (OPE) structure at rest; the
    /// opt-out trades lookup speed for not storing that structure. Only
    /// meaningful with a store (indexes are built per committed segment);
    /// unknown names are harmless.
    pub fn create_table_with(&mut self, schema: TableSchema, unindexed: Vec<String>) {
        let key = schema.name.to_lowercase();
        self.catalog.register(schema.clone());
        if let Some(store) = &self.store {
            store
                .create_table_with(
                    &key,
                    schema
                        .columns
                        .iter()
                        .map(|c| (c.name.clone(), c.ty))
                        .collect(),
                    unindexed,
                )
                .expect("catalog commit succeeds");
        }
        self.tables
            .insert(key, Table::with_store(schema, self.store.clone()));
        self.invalidate_stats();
    }

    /// Registers the Paillier public modulus so the server can evaluate the
    /// `paillier_sum` UDF (ciphertext multiplication modulo n²). The
    /// Montgomery context for n² is derived once, here, and shared with every
    /// aggregation state.
    ///
    /// Panics if `n_squared` is even or zero (a Paillier modulus is a product
    /// of odd primes, so a valid n² is always odd).
    pub fn register_paillier_modulus(&mut self, n_squared: BigUint) {
        let ctx = MontgomeryCtx::new(n_squared.clone());
        let ciphertext_bytes = n_squared.bits().div_ceil(8);
        self.paillier = Some(Arc::new(PaillierServerCtx {
            n_squared,
            ctx,
            ciphertext_bytes,
        }));
    }

    /// Borrowed handle to the registered Paillier modulus (n²), if any.
    pub fn paillier_modulus(&self) -> Option<&BigUint> {
        self.paillier.as_deref().map(PaillierServerCtx::n_squared)
    }

    /// The shared Paillier evaluation context, if a modulus was registered.
    pub fn paillier_ctx(&self) -> Option<&Arc<PaillierServerCtx>> {
        self.paillier.as_ref()
    }

    /// Inserts one row into a table.
    pub fn insert(&mut self, table: &str, row: Vec<Value>) -> Result<(), EngineError> {
        let t = self
            .tables
            .get_mut(&table.to_lowercase())
            .ok_or_else(|| EngineError::new(format!("unknown table {table}")))?;
        t.insert(row).map_err(EngineError::new)?;
        self.invalidate_stats();
        Ok(())
    }

    /// Bulk-loads rows into a table: [`stage_load`](Self::stage_load), then
    /// [`apply_load`](Self::apply_load) when the stage left rows over.
    pub fn bulk_load(&mut self, table: &str, rows: Vec<Vec<Value>>) -> Result<(), EngineError> {
        match self.stage_load(table, rows)? {
            Some(staged) => self.apply_load(staged),
            None => Ok(()),
        }
    }

    /// The part of a bulk load that needs only a shared reference, so it can
    /// run beside queries. Into a store-backed table with an empty tail, the
    /// rows are encoded, written and committed here (`Ok(None)`); statements
    /// that start afterwards see them, statements already running do not.
    /// Otherwise — a table without a store, or one whose unflushed `insert`
    /// tail the rows must follow — the validated rows come back for
    /// [`apply_load`](Self::apply_load). See [`Table::stage_load`].
    pub fn stage_load(
        &self,
        table: &str,
        rows: Vec<Vec<Value>>,
    ) -> Result<Option<StagedLoad>, EngineError> {
        let t = self
            .table(table)
            .ok_or_else(|| EngineError::new(format!("unknown table {table}")))?;
        let staged = t.stage_load(rows);
        // Committed segments change what the statistics describe, whether or
        // not the load then reports an invalid row.
        self.invalidate_stats();
        staged.map_err(EngineError::new)
    }

    /// Finishes a load [`stage_load`](Self::stage_load) staged: appends its
    /// rows to the table's tail (flushing it when the table has a store).
    pub fn apply_load(&mut self, staged: StagedLoad) -> Result<(), EngineError> {
        let t = self
            .tables
            .get_mut(staged.table())
            .ok_or_else(|| EngineError::new(format!("unknown table {}", staged.table())))?;
        let applied = t.apply_load(staged);
        self.invalidate_stats();
        applied.map_err(EngineError::new)
    }

    /// Looks up a table.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(&name.to_lowercase())
    }

    /// All table names, in sorted order (the map is ordered by name).
    pub fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }

    /// The catalog of schemas.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Total logical size of all tables in bytes — the same with or without
    /// a store (the space-overhead experiments depend on that). The physical
    /// footprint is [`total_stored_bytes`](Self::total_stored_bytes).
    pub fn total_size_bytes(&self) -> usize {
        self.tables.values().map(Table::size_bytes).sum()
    }

    /// Total stored (encoded) bytes of committed segments — the real on-disk
    /// footprint (0 without a store).
    pub fn total_stored_bytes(&self) -> usize {
        self.tables.values().map(Table::stored_bytes).sum()
    }

    /// Executes a SQL string with positional parameters, untraced, using the
    /// environment-derived execution options (see [`ExecOptions::from_env`]).
    pub fn execute_sql(
        &self,
        sql: &str,
        params: &[Value],
    ) -> Result<(ResultSet, ExecStats), EngineError> {
        let query = parse_query(sql).map_err(|e| EngineError::new(e.to_string()))?;
        let (result, stats, _) = self.execute(&query, params, &ExecOptions::env_cached(), false)?;
        Ok((result, stats))
    }

    /// Executes a parsed query with explicit execution options (worker thread
    /// count and morsel size); results are bit-identical at every thread
    /// count. With `traced`, also returns one span per named operator
    /// (`ScanFilter`, `HashJoin`, `MorselAggregate`, `Sort`) in execution
    /// order; results and work counters are identical either way, and the
    /// untraced run returns no spans and reads no clock.
    pub fn execute(
        &self,
        query: &Query,
        params: &[Value],
        opts: &ExecOptions,
        traced: bool,
    ) -> Result<(ResultSet, ExecStats, Vec<monomi_obs::Span>), EngineError> {
        execute_query(self, query, params, opts, traced)
    }

    /// Returns EXPLAIN-style cost and cardinality estimates for a query, the
    /// interface MONOMI's planner uses instead of timing candidate plans.
    pub fn estimate(&self, query: &Query) -> QueryEstimate {
        self.with_stats(|stats| Estimator::new(stats).estimate(query))
    }

    /// The largest value of one column in the statistics (used by the
    /// planner for data-driven decisions such as pre-filter thresholds).
    pub fn column_max(&self, table: &str, column: &str) -> Option<Value> {
        self.with_stats(|stats| stats.get(table)?.columns.get(column)?.max.clone())
    }

    /// Runs `f` over the per-table statistics, collecting them first when
    /// the cache is cold. A warm cache is only read, so concurrent planners
    /// never serialize on it.
    fn with_stats<R>(&self, f: impl FnOnce(&HashMap<String, TableStats>) -> R) -> R {
        if let Some(stats) = self.stats_cache.read().as_ref() {
            return f(stats);
        }
        let mut cache = self.stats_cache.write();
        f(cache.get_or_insert_with(|| collect_stats(self)))
    }

    fn invalidate_stats(&self) {
        *self.stats_cache.write() = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, ColumnType};

    fn sample_db() -> Database {
        let mut db = Database::new();
        db.create_table(TableSchema::new(
            "orders",
            vec![
                ColumnDef::new("o_orderkey", ColumnType::Int),
                ColumnDef::new("o_custkey", ColumnType::Int),
                ColumnDef::new("o_totalprice", ColumnType::Int),
                ColumnDef::new("o_status", ColumnType::Str),
            ],
        ));
        db.create_table(TableSchema::new(
            "customer",
            vec![
                ColumnDef::new("c_custkey", ColumnType::Int),
                ColumnDef::new("c_name", ColumnType::Str),
                ColumnDef::new("c_nationkey", ColumnType::Int),
            ],
        ));
        for i in 0..100i64 {
            db.insert(
                "orders",
                vec![
                    Value::Int(i),
                    Value::Int(i % 10),
                    Value::Int(100 + i * 7),
                    Value::Str(if i % 3 == 0 { "F" } else { "O" }.into()),
                ],
            )
            .unwrap();
        }
        for c in 0..10i64 {
            db.insert(
                "customer",
                vec![
                    Value::Int(c),
                    Value::Str(format!("Customer#{c}")),
                    Value::Int(c % 5),
                ],
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn filter_and_projection() {
        let db = sample_db();
        let (rs, stats) = db
            .execute_sql(
                "SELECT o_orderkey, o_totalprice FROM orders WHERE o_totalprice > 700",
                &[],
            )
            .unwrap();
        assert!(rs.rows.iter().all(|r| r[1].as_int().unwrap() > 700));
        assert!(!rs.is_empty());
        assert_eq!(stats.rows_scanned, 100);
        assert_eq!(rs.columns, vec!["o_orderkey", "o_totalprice"]);
    }

    #[test]
    fn group_by_and_having() {
        let db = sample_db();
        let (rs, _) = db
            .execute_sql(
                "SELECT o_custkey, SUM(o_totalprice) AS total, COUNT(*) FROM orders \
                 GROUP BY o_custkey HAVING COUNT(*) >= 10 ORDER BY total DESC",
                &[],
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 10);
        // Ordered descending by total.
        for w in rs.rows.windows(2) {
            assert!(w[0][1] >= w[1][1]);
        }
    }

    #[test]
    fn join_with_aggregation() {
        let db = sample_db();
        let (rs, _) = db
            .execute_sql(
                "SELECT c_name, SUM(o_totalprice) FROM customer, orders \
                 WHERE c_custkey = o_custkey GROUP BY c_name ORDER BY c_name",
                &[],
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 10);
        // Each customer has 10 orders; totals must be positive.
        assert!(rs.rows.iter().all(|r| r[1].as_int().unwrap() > 0));
    }

    #[test]
    fn subqueries_scalar_and_in() {
        let db = sample_db();
        let (rs, _) = db
            .execute_sql(
                "SELECT o_orderkey FROM orders WHERE o_totalprice > \
                 (SELECT AVG(o_totalprice) FROM orders)",
                &[],
            )
            .unwrap();
        assert!(rs.rows.len() > 10 && rs.rows.len() < 100);

        let (rs2, _) = db
            .execute_sql(
                "SELECT c_name FROM customer WHERE c_custkey IN \
                 (SELECT o_custkey FROM orders WHERE o_totalprice > 750) ORDER BY c_name",
                &[],
            )
            .unwrap();
        assert!(!rs2.is_empty());
    }

    #[test]
    fn correlated_exists() {
        let db = sample_db();
        let (rs, _) = db
            .execute_sql(
                "SELECT c_custkey FROM customer WHERE EXISTS \
                 (SELECT * FROM orders WHERE o_custkey = c_custkey AND o_totalprice > 780)",
                &[],
            )
            .unwrap();
        assert!(!rs.is_empty() && rs.len() < 10);
    }

    #[test]
    fn params_distinct_limit() {
        let db = sample_db();
        let (rs, _) = db
            .execute_sql(
                "SELECT DISTINCT o_status FROM orders WHERE o_custkey = :1 ORDER BY o_status LIMIT 5",
                &[Value::Int(3)],
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn derived_table_in_from() {
        let db = sample_db();
        let (rs, _) = db
            .execute_sql(
                "SELECT status, total FROM \
                 (SELECT o_status AS status, SUM(o_totalprice) AS total FROM orders GROUP BY o_status) AS t \
                 ORDER BY total DESC",
                &[],
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 2);
        assert!(rs.rows[0][1] >= rs.rows[1][1]);
    }

    #[test]
    fn size_accounting_for_space_experiments() {
        let db = sample_db();
        assert!(db.total_size_bytes() > 0);
        let orders_bytes = db.table("orders").unwrap().size_bytes();
        let customer_bytes = db.table("customer").unwrap().size_bytes();
        assert_eq!(db.total_size_bytes(), orders_bytes + customer_bytes);
    }

    #[test]
    fn estimate_is_available() {
        let db = sample_db();
        let q = parse_query("SELECT o_custkey, SUM(o_totalprice) FROM orders GROUP BY o_custkey")
            .unwrap();
        let est = db.estimate(&q);
        assert!(est.server_cost > 0.0);
        assert!(est.result_rows >= 9.0 && est.result_rows <= 11.0);
    }

    #[test]
    fn unknown_table_is_an_error() {
        let db = sample_db();
        assert!(db.execute_sql("SELECT x FROM missing", &[]).is_err());
    }

    /// Two tables with NULLs in the join columns.
    fn nullable_join_db() -> Database {
        let mut db = Database::new();
        db.create_table(TableSchema::new(
            "l",
            vec![
                ColumnDef::new("lk", ColumnType::Int),
                ColumnDef::new("lv", ColumnType::Str),
            ],
        ));
        db.create_table(TableSchema::new(
            "r",
            vec![
                ColumnDef::new("rk", ColumnType::Int),
                ColumnDef::new("rv", ColumnType::Str),
            ],
        ));
        db.bulk_load(
            "l",
            vec![
                vec![Value::Int(1), Value::Str("l1".into())],
                vec![Value::Null, Value::Str("lnull".into())],
                vec![Value::Int(2), Value::Str("l2".into())],
            ],
        )
        .unwrap();
        db.bulk_load(
            "r",
            vec![
                vec![Value::Int(1), Value::Str("r1".into())],
                vec![Value::Null, Value::Str("rnull".into())],
                vec![Value::Int(3), Value::Str("r3".into())],
            ],
        )
        .unwrap();
        db
    }

    #[test]
    fn null_join_keys_never_match() {
        let db = nullable_join_db();
        // SQL equi-join: NULL = NULL is not true, so only lk=1/rk=1 pairs up.
        let (rs, _) = db
            .execute_sql("SELECT lv, rv FROM l, r WHERE lk = rk", &[])
            .unwrap();
        assert_eq!(
            rs.rows,
            vec![vec![Value::Str("l1".into()), Value::Str("r1".into())]]
        );
    }

    #[test]
    fn group_by_keeps_one_null_group() {
        let db = nullable_join_db();
        // GROUP BY (unlike joins) collapses NULL keys into a single group.
        let (rs, _) = db
            .execute_sql("SELECT lk, COUNT(*) FROM l GROUP BY lk ORDER BY lk", &[])
            .unwrap();
        assert_eq!(rs.rows.len(), 3);
        assert_eq!(rs.rows[0][0], Value::Null);
        assert_eq!(rs.rows[0][1], Value::Int(1));
    }

    #[test]
    fn distinct_over_mixed_int_float_expressions() {
        let db = sample_db();
        // The CASE yields Int(1) for even keys and Float(1.0) for odd ones;
        // the DISTINCT hash set must treat them as a single key now that
        // equal numerics hash identically.
        let (rs, _) = db
            .execute_sql(
                "SELECT DISTINCT CASE WHEN o_orderkey % 2 = 0 THEN 1 ELSE 1.0 END FROM orders",
                &[],
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 1);

        // Same contract for GROUP BY keys over a computed expression.
        let (grouped, _) = db
            .execute_sql(
                "SELECT COUNT(*) FROM orders \
                 GROUP BY CASE WHEN o_orderkey % 2 = 0 THEN 1 ELSE 1.0 END",
                &[],
            )
            .unwrap();
        assert_eq!(grouped.rows, vec![vec![Value::Int(100)]]);
    }

    #[test]
    fn order_by_sorts_nulls_first_and_breaks_ties_stably() {
        let mut db = nullable_join_db();
        db.insert("l", vec![Value::Int(1), Value::Str("l1b".into())])
            .unwrap();
        let (rs, _) = db
            .execute_sql("SELECT lk, lv FROM l ORDER BY lk, lv DESC", &[])
            .unwrap();
        // NULL first, then ties on lk=1 broken by lv descending.
        assert_eq!(rs.rows[0][0], Value::Null);
        assert_eq!(rs.rows[1][1], Value::Str("l1b".into()));
        assert_eq!(rs.rows[2][1], Value::Str("l1".into()));
        assert_eq!(rs.rows[3][0], Value::Int(2));
    }

    #[test]
    fn scan_stats_report_selectivity_and_materialized_bytes() {
        let db = sample_db();
        let (_, stats) = db
            .execute_sql(
                "SELECT o_orderkey FROM orders WHERE o_totalprice > 700",
                &[],
            )
            .unwrap();
        assert_eq!(stats.rows_scanned, 100);
        // (100 + i*7) > 700 for i in 86..100 → 14 survivors. The filter on
        // o_totalprice was consumed by the scan, so only o_orderkey (8 bytes
        // per row) is materialized.
        assert_eq!(stats.rows_materialized, 14);
        assert_eq!(stats.bytes_materialized, 14 * 8);
        assert!(stats.bytes_materialized < stats.bytes_scanned);
        assert!((stats.scan_selectivity() - 0.14).abs() < 1e-9);

        // Unfiltered scans materialize everything they reference.
        let (_, full) = db
            .execute_sql("SELECT o_orderkey FROM orders", &[])
            .unwrap();
        assert_eq!(full.rows_materialized, 100);
        assert!((full.scan_selectivity() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn late_materialization_prunes_unreferenced_columns() {
        let db = sample_db();
        // Only o_orderkey is referenced: materialized bytes must stay below
        // 8 bytes per surviving row plus nothing else (o_status strings and
        // the other int columns are never cloned).
        let (_, stats) = db
            .execute_sql("SELECT o_orderkey FROM orders WHERE o_orderkey < 10", &[])
            .unwrap();
        assert_eq!(stats.rows_materialized, 10);
        assert_eq!(stats.bytes_materialized, 10 * 8);
    }

    #[test]
    fn count_star_scan_needs_no_columns() {
        let db = sample_db();
        let (rs, stats) = db.execute_sql("SELECT COUNT(*) FROM orders", &[]).unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(100)]]);
        // Nothing is referenced, so nothing is materialized.
        assert_eq!(stats.bytes_materialized, 0);
        assert_eq!(stats.rows_materialized, 100);
    }
}
