# specmax picks its BLAS thread count at import, which only takes effect
# before numpy is first loaded; importing it here, ahead of every test
# module, keeps that independent of which test file runs first.
import specmax  # noqa: F401
