/** @file mopsuite: every table, figure and ablation (`mopsuite --help`). */

#include "figures/figures.hh"
#include "sweep/suite.hh"

int
main(int argc, char **argv)
{
    mop::bench::registerAllFigures();
    return mop::sweep::suiteMain(argc, argv);
}
