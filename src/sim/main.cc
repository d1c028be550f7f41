/** @file mopsim: the simulator CLI (`mopsim --help`). */

#include "sim/config.hh"

int
main(int argc, char **argv)
{
    return mop::sim::mopsimMain(argc, argv);
}
