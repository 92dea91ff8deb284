"""Import the benchmark's modules and the package from this checkout's src/."""

import run

run.pin_blas_threads()
run.import_package()
