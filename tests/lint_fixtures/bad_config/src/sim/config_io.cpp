// Seeded CHK-CONFIG violation: `router.undocumented` has a row in the
// parameter table but is not documented in docs/CONFIG.md.
namespace dfsim {

constexpr Row kRows[] = {
    ROW(router.vcs),
    ROW(router.undocumented),  // VIOLATION
};

}  // namespace dfsim
